package repro.checkpoint

import org.scalatest.funsuite.AnyFunSuite
import repro.SimTestKit
import repro.queries._

/** COOR-specific behaviour: rounds, alignment, cycle refusal, recovery. */
class CoordinatedSpec extends AnyFunSuite {

  test("rounds complete and produce one counted checkpoint per source/stateful instance") {
    val (rt, _, history) =
      SimTestKit.recordedRun(Q3, "COOR", 3, rate = 100.0, horizonMicros = 10_000_000L)
    val coor = history.inner.asInstanceOf[Coordinated]
    assert(coor.completedRounds.nonEmpty, "no coordinated round completed")
    coor.completedRounds.keys.foreach { r =>
      val metas = history.store.allMetas.filter(_.kind == CoordinatedCkpt(r))
      assert(metas.size == rt.graph.instances.size,
        s"round $r incomplete: ${metas.size}/${rt.graph.instances.size}")
    }
  }

  test("alignment invariant: in a completed round, every channel is flushed (recv == sent)") {
    val (_, _, history) =
      SimTestKit.recordedRun(Q3, "COOR", 3, rate = 100.0, horizonMicros = 10_000_000L)
    val coor = history.inner.asInstanceOf[Coordinated]
    for (r <- coor.completedRounds.keys) {
      val metas = history.store.allMetas.filter(_.kind == CoordinatedCkpt(r))
        .map(m => m.id -> m).toMap
      for ((id, m) <- metas; (ch, sent) <- m.lastSent) {
        val recv = metas(ch.to).lastReceived.getOrElse(ch, -1L)
        assert(recv == sent,
          s"round $r channel $ch not aligned: sender sent=$sent receiver recv=$recv")
      }
    }
  }

  test("markers block channels: alignment durations are recorded") {
    val (rt, _) = SimTestKit.run(Q3, "COOR", 3, rate = 150.0, horizonMicros = 10_000_000L)
    assert(rt.metrics.alignMicros.nonEmpty)
    assert(rt.metrics.alignMicros.forall(_ >= 0))
  }

  test("COOR refuses cyclic graphs (marker deadlock)") {
    val reach = Reachability(ReachConfig(100, 50.0, 5_000_000L))
    val ex = intercept[IllegalArgumentException] {
      SimTestKit.run(reach, "COOR", 2, rate = 50.0, horizonMicros = 5_000_000L)
    }
    assert(ex.getMessage.contains("cyclic"))
  }

  test("recovery uses the last complete round and reports zero invalid checkpoints") {
    val (rt, res) = SimTestKit.run(Q3, "COOR", 3, rate = 100.0,
      horizonMicros = 15_000_000L, failAt = Some(8_000_000L))
    assert(res.invalidCounted == 0)
    assert(res.replayedMessages == 0, "COOR must not need replay")
    assert(res.eoViolations == 0)
    assert(res.unconsumed == 0)
    assert(rt.metrics.restartMicros > 0)
  }

  test("failure before any complete round falls back to the initial line") {
    val (rt, res) = SimTestKit.run(Q1, "COOR", 2, rate = 50.0,
      horizonMicros = 15_000_000L, failAt = Some(1_200_000L))
    assert(res.eoViolations == 0)
    assert(res.unconsumed == 0)
    // All output still produced exactly once after recovering from scratch.
    val evs = repro.nexmark.NexmarkGen.events(
      repro.nexmark.NexmarkConfig(50.0, 15_000_000L, seed = 7L, include = Set("bid")))
    assert(Q1.sinkDigest(rt) == SparkRefs.q1Expected(evs))
  }

  test("round duration (checkpointing time) far exceeds UNC sync snapshot time") {
    val (_, coor) = SimTestKit.run(Q3, "COOR", 3, rate = 100.0, horizonMicros = 10_000_000L)
    val (_, unc) = SimTestKit.run(Q3, "UNC", 3, rate = 100.0, horizonMicros = 10_000_000L)
    assert(coor.avgCheckpointMicros > 10 * unc.avgCheckpointMicros,
      s"COOR ${coor.avgCheckpointMicros} vs UNC ${unc.avgCheckpointMicros}")
  }
}
