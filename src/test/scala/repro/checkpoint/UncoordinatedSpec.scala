package repro.checkpoint

import org.scalatest.funsuite.AnyFunSuite
import repro.SimTestKit
import repro.queries._

/** UNC-specific behaviour: independent timers, message logging, recovery
  * lines, replay and deduplication.
  */
class UncoordinatedSpec extends AnyFunSuite {

  test("instances checkpoint independently on jittered timers (no two aligned rounds)") {
    val (_, _, history) =
      SimTestKit.recordedRun(Q3, "UNC", 3, rate = 100.0, horizonMicros = 10_000_000L)
    val counted = history.store.allMetas.filter(m => m.counted && m.kind == LocalCkpt)
    assert(counted.nonEmpty)
    // Jittered phases: the set of distinct first-checkpoint times is large.
    val firstTimes = counted.groupBy(_.id).map(_._2.minBy(_.idx).takenAt).toSet
    assert(firstTimes.size > counted.groupBy(_.id).size / 2)
  }

  test("no markers ever flow under UNC") {
    val (rt, _) = SimTestKit.run(Q3, "UNC", 2, rate = 80.0, horizonMicros = 8_000_000L)
    // onMarker would throw; reaching here plus zero alignment stats proves it.
    assert(rt.metrics.alignMicros.isEmpty)
    assert(rt.metrics.roundDurationMicros.isEmpty)
  }

  test("message log records every data message when logging is on") {
    val (rt, res) = SimTestKit.run(Q1, "UNC", 2, rate = 100.0, horizonMicros = 5_000_000L)
    // Window-gated counter vs full log: log covers the whole run.
    assert(rt.log.totalMessages >= res.sinkRecords)
    assert(rt.log.totalBytes > 0)
  }

  test("failure triggers replay from the logs and dedup absorbs overlaps") {
    val (rt, res) = SimTestKit.run(Q3, "UNC", 3, rate = 150.0,
      horizonMicros = 15_000_000L, failAt = Some(8_000_000L))
    assert(res.replayedMessages > 0, "UNC recovery should replay in-flight messages")
    assert(res.eoViolations == 0)
    assert(rt.metrics.recoveryLineAlgoMicros > 0)
  }

  test("recovery line is consistent and restart accounts for replay") {
    val (rt, res) = SimTestKit.run(Q3, "UNC", 3, rate = 150.0,
      horizonMicros = 15_000_000L, failAt = Some(8_000_000L))
    assert(res.restartMicros > 0)
    // UNC restart includes replay fetch; COOR same setup should restart faster.
    val (_, coor) = SimTestKit.run(Q3, "COOR", 3, rate = 150.0,
      horizonMicros = 15_000_000L, failAt = Some(8_000_000L))
    assert(coor.replayedMessages == 0)
    assert(res.restartMicros >= coor.restartMicros,
      s"UNC restart ${res.restartMicros} < COOR ${coor.restartMicros}")
  }

  test("invalid checkpoints are a small fraction of totals") {
    val (_, res) = SimTestKit.run(Q3, "UNC", 3, rate = 150.0,
      horizonMicros = 15_000_000L, failAt = Some(8_000_000L))
    assert(res.totalCounted > 0)
    assert(res.invalidPct < 50.0, s"domino-like rollback: ${res.invalidPct}%")
  }

  test("checkpoint metadata overhead is tiny (Table II: ~1.00x)") {
    val (_, res) = SimTestKit.steadyRun(Q12(), "UNC", 3, rate = 200.0)
    assert(res.overheadRatio < 1.05, s"UNC overhead ${res.overheadRatio}")
  }

  test("different checkpoint intervals per run are honoured") {
    val s1 = SimTestKit.testSim(None).copy(localIntervalMicros = 500_000L)
    val s2 = SimTestKit.testSim(None).copy(localIntervalMicros = 4_000_000L)
    val r1 = repro.core.Experiment.run(repro.core.ExpConfig(Q1, "UNC", 2, 100.0,
      sim = s1, inputHorizonMicros = Some(10_000_000L)))._2
    val r2 = repro.core.Experiment.run(repro.core.ExpConfig(Q1, "UNC", 2, 100.0,
      sim = s2, inputHorizonMicros = Some(10_000_000L)))._2
    assert(r1.totalCounted > 2 * r2.totalCounted)
  }
}
