package repro.checkpoint

import org.scalatest.funsuite.AnyFunSuite
import repro.SimTestKit
import repro.queries._

/** CIC/HMNR-specific behaviour: piggybacks, forced checkpoints, overhead. */
class HmnrSpec extends AnyFunSuite {

  test("every data message carries a piggyback with correct vector lengths") {
    val (rt, _, history) =
      SimTestKit.recordedRun(Q3, "CIC", 3, rate = 100.0, horizonMicros = 8_000_000L)
    val joinIn = rt.allInstances.find(i => i.id.op == "join").get.inCh.head
    val logged = history.applied.filter(_.channel == joinIn)
    assert(logged.nonEmpty)
    val nInstances = 4 * 3 // Q3 has 4 logical ops at parallelism 3
    logged.foreach { m =>
      assert(m.piggyback.isDefined)
      val p = m.piggyback.get
      assert(p.ckpt.length == nInstances && p.taken.length == nInstances &&
        p.greater.length == nInstances)
      assert(p.bytes > 0)
    }
  }

  test("piggyback bytes are counted as protocol overhead (Table II shape)") {
    val (_, cic) = SimTestKit.steadyRun(Q1, "CIC", 3, rate = 200.0)
    val (_, unc) = SimTestKit.steadyRun(Q1, "UNC", 3, rate = 200.0)
    val (_, coor) = SimTestKit.steadyRun(Q1, "COOR", 3, rate = 200.0)
    assert(coor.overheadRatio < 1.02, s"COOR ${coor.overheadRatio}")
    assert(unc.overheadRatio < 1.05, s"UNC ${unc.overheadRatio}")
    // At parallelism 3 the vectors are small; the bench sweep at 10/50
    // workers lands in the paper's 1.7x-2.6x band.
    assert(cic.overheadRatio > 1.15, s"CIC ${cic.overheadRatio}")
    assert(cic.overheadRatio > unc.overheadRatio && unc.overheadRatio >= coor.overheadRatio)
  }

  test("piggyback grows with parallelism (delta-encoded, sublinear)") {
    def avgPiggy(workers: Int): Double = {
      val (rt, res) = SimTestKit.run(Q1, "CIC", workers, rate = 100.0 * workers,
        horizonMicros = 6_000_000L)
      res.protoBytes.toDouble / math.max(1L, res.sinkRecords)
    }
    val p3 = avgPiggy(3)
    val p10 = avgPiggy(10)
    assert(p10 > p3, s"piggyback should grow with workers: $p3 vs $p10")
    assert(p10 < p3 * 10, "delta encoding keeps growth sublinear")
  }

  private def cyclicQ = Reachability(ReachConfig(5000, 0.0, 0L))

  test("forced checkpoints occur on cyclic communication and are tagged") {
    val (_, _, history) =
      SimTestKit.recordedRun(cyclicQ, "CIC", 3, rate = 150.0, horizonMicros = 12_000_000L)
    val hmnr = history.inner.asInstanceOf[Hmnr]
    val forcedMetas = history.store.allMetas.count(_.kind == ForcedCkpt)
    assert(hmnr.forcedCount > 0, "HMNR never forced a checkpoint on the cyclic query")
    assert(forcedMetas > 0)
  }

  test("forward-only (acyclic) topologies force no checkpoints (sent_to damping)") {
    val (rt, _) = SimTestKit.run(Q3, "CIC", 3, rate = 150.0, horizonMicros = 12_000_000L)
    val hmnr = rt.protocol.asInstanceOf[Hmnr]
    assert(hmnr.forcedCount == 0,
      "no Z-cycle can close on a forward-only topology, so nothing should be forced")
  }

  test("forced-checkpoint rate is bounded (no livelock on cycles)") {
    val (rt, res) = SimTestKit.run(cyclicQ, "CIC", 3, rate = 150.0,
      horizonMicros = 12_000_000L)
    val hmnr = rt.protocol.asInstanceOf[Hmnr]
    assert(res.unconsumed == 0)
    assert(hmnr.forcedCount < rt.metrics.processedRecords / 5,
      s"forced ${hmnr.forcedCount} of ${rt.metrics.processedRecords} processed")
  }

  test("CIC checkpoints carry extra protocol bytes (vectors)") {
    val (_, _, histC) =
      SimTestKit.recordedRun(Q12(), "CIC", 4, rate = 100.0, horizonMicros = 8_000_000L)
    val (_, _, histU) =
      SimTestKit.recordedRun(Q12(), "UNC", 4, rate = 100.0, horizonMicros = 8_000_000L)
    val cBytes = histC.store.allMetas.filter(m => m.counted && m.kind != InitialCkpt)
      .map(_.stateBytes).min
    val uBytes = histU.store.allMetas.filter(m => m.counted && m.kind != InitialCkpt)
      .map(_.stateBytes).min
    assert(cBytes > uBytes)
  }

  test("CIC avg checkpoint (sync) time exceeds UNC's") {
    val (_, cic) = SimTestKit.run(Q3, "CIC", 4, rate = 150.0, horizonMicros = 10_000_000L)
    val (_, unc) = SimTestKit.run(Q3, "UNC", 4, rate = 150.0, horizonMicros = 10_000_000L)
    assert(cic.avgCheckpointMicros >= unc.avgCheckpointMicros)
  }

  test("CIC total checkpoints >= UNC's; forced only on cyclic communication") {
    val (_, cic) = SimTestKit.run(Q3, "CIC", 3, rate = 150.0, horizonMicros = 12_000_000L)
    val (_, unc) = SimTestKit.run(Q3, "UNC", 3, rate = 150.0, horizonMicros = 12_000_000L)
    assert(cic.totalCounted >= unc.totalCounted)
    assert(unc.forcedCounted == 0)
    val (_, cicCyc) = SimTestKit.run(cyclicQ, "CIC", 3, rate = 150.0,
      horizonMicros = 12_000_000L)
    assert(cicCyc.forcedCounted > 0)
  }
}
