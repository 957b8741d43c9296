package repro.checkpoint

import org.scalatest.funsuite.AnyFunSuite
import repro.SimTestKit
import repro.queries._

/** The restart-time model and recovery-plan internals. */
class RecoverySpec extends AnyFunSuite {

  test("recovery line restores exactly the checkpointed source offsets") {
    val (rt, _) = SimTestKit.run(Q1, "UNC", 2, rate = 200.0,
      horizonMicros = 15_000_000L, failAt = Some(8_000_000L))
    // After the run everything is drained: offsets equal the input length.
    rt.allInstances.filter(_.spec.isSource).foreach { s =>
      assert(s.srcOffset == rt.input.events(s.id).length)
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
}
