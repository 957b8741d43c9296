package repro.checkpoint

import org.scalatest.funsuite.AnyFunSuite
import repro.SimTestKit
import repro.queries._

/** The restart-time model and recovery-plan internals. */
class RecoverySpec extends AnyFunSuite {

  test("Q3/CIC: every held checkpoint's seq vectors are the instance's when it was taken") {
    val (rt, res, history) = SimTestKit.recordedRun(Q3, "CIC", 3, rate = 150.0,
      horizonMicros = 15_000_000L, failAt = Some(9_000_000L))
    assert(res.eoViolations == 0 && res.unconsumed == 0)
    val w = rt.graph.wiring
    // The recorder holds every checkpoint of the run, those taken while
    // records still flowed included; the runtime's store holds a subset.
    val held = history.store.allMetas
    assert(rt.store.allMetas.forall(m => held.exists(_ eq m)))
    for (m <- held) {
      val (sent, received) =
        if (m.kind == InitialCkpt) {
          val g = w.index(m.id)
          (Seq.fill(w.outCh(g).size)(0L), Seq.fill(w.inCh(g).size)(0L))
        } else history.vectorsAt((m.id, m.idx))
      assert(m.lastSent == sent && m.lastReceived == received, s"${m.id} checkpoint ${m.idx}")
    }
  }

  test("recovery line restores exactly the checkpointed source offsets") {
    val (rt, _) = SimTestKit.run(Q1, "UNC", 2, rate = 200.0,
      horizonMicros = 15_000_000L, failAt = Some(8_000_000L))
    // After the run everything is drained: offsets equal the input length.
    rt.allInstances.filter(_.spec.isSource).foreach { s =>
      assert(s.srcOffset == rt.input.size(s.id))
    }
  }

  test("restart grows with state size (bigger state, longer load)") {
    // Q3's join state grows with the horizon; compare short vs long runs.
    val (_, short) = SimTestKit.run(Q3, "COOR", 2, rate = 200.0,
      horizonMicros = 6_000_000L, failAt = Some(5_000_000L))
    val (_, long) = SimTestKit.run(Q3, "COOR", 2, rate = 200.0,
      horizonMicros = 20_000_000L, failAt = Some(19_000_000L))
    assert(long.restartMicros >= short.restartMicros)
  }

  test("UNC restart includes the recovery-line algorithm cost (insignificant)") {
    val (rt, res) = SimTestKit.run(Q3, "UNC", 2, rate = 200.0,
      horizonMicros = 12_000_000L, failAt = Some(8_000_000L))
    assert(rt.metrics.recoveryLineAlgoMicros > 0)
    // The paper: "finding the recovery line has an insignificant cost".
    assert(rt.metrics.recoveryLineAlgoMicros < res.restartMicros / 10)
  }

  test("more in-flight messages at failure mean a longer logged restart") {
    val (_, lowRate) = SimTestKit.run(Q3, "UNC", 3, rate = 60.0,
      horizonMicros = 12_000_000L, failAt = Some(8_000_000L))
    val (_, highRate) = SimTestKit.run(Q3, "UNC", 3, rate = 400.0,
      horizonMicros = 12_000_000L, failAt = Some(8_000_000L))
    assert(highRate.replayedMessages >= lowRate.replayedMessages)
  }

  test("checkpoints not yet durable at the failure instant are unusable") {
    val (rt, _, history) = SimTestKit.recordedRun(Q3, "UNC", 2, rate = 200.0,
      horizonMicros = 12_000_000L, failAt = Some(8_000_000L))
    val failAt = rt.metrics.failureAt.get
    rt.allInstances.foreach { inst =>
      val durable = history.store.durable(inst.id, failAt)
      assert(durable.forall(_.durableAt <= failAt))
      assert(durable.nonEmpty, "initial checkpoint must always be durable")
    }
  }

  test("recovered run re-takes checkpoints after resume") {
    val (rt, _) = SimTestKit.run(Q3, "UNC", 2, rate = 150.0,
      horizonMicros = 20_000_000L, failAt = Some(6_000_000L))
    val failAt = rt.metrics.failureAt.get
    val post = rt.store.allMetas.count(m => m.takenAt > failAt && m.kind == LocalCkpt)
    assert(post > 0, "UNC timers must re-arm after recovery")
  }

  test("the replay plan lists channels in name order, not the wiring's, at 12 workers") {
    val (rt, res, history) = SimTestKit.recordedRun(Q3, "UNC", 12, rate = 600.0,
      horizonMicros = 6_000_000L, failAt = Some(4_000_000L))
    assert(res.eoViolations == 0 && res.unconsumed == 0)
    val channels = history.lastPlan.get.replay.map(_.msgs.head.channel)
    val names = channels.map(_.toString)
    assert(names == names.sorted)
    // By (sender, out-index) the order differs ("join[10]" sorts before
    // "join[2]"), so the check above tells the two apart.
    val w = rt.graph.wiring
    val byIndex = channels.sortBy { ch =>
      val i = w.index(ch.from)
      (i, w.outCh(i).indexOf(ch))
    }
    assert(byIndex != channels, s"${channels.size} replayed channels")
  }
}
