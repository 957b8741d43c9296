package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Recorder
import repro.checkpoint.{ForcedCkpt, InitialCkpt}
import repro.dataflow.{Runtime, SimConfig}
import repro.queries._

/** The measured window and the end of a run, under every protocol.
  * Table III/IV's counts are the run's metrics, tallied as each checkpoint
  * is taken; here they are checked against a count over the recorder's
  * whole history, which keeps the checkpoints that collection and recovery
  * drop from the store. Input flows up to the end of each run, and the
  * warmup covers COOR's first round and some of UNC's and CIC's timers, so
  * both ends of the window cut.
  */
class RunWindowSpec extends AnyFunSuite {
  import RunWindowSpec._

  for (c <- cells)
    test(s"${c.label}: the counted and forced tallies equal a count over the whole history") {
      val (rt, res, history) = c.run
      val all = history.store.allMetas.filter(m => m.counted && m.kind != InitialCkpt)
      val inWindow = all.filter(m => rt.cfg.inWindow(m.takenAt))
      assert(rt.metrics.countedCkpts == inWindow.size)
      assert(rt.metrics.forcedCkpts == inWindow.count(_.kind == ForcedCkpt))
      assert(res.totalCounted == rt.metrics.countedCkpts)
      assert(res.forcedCounted == rt.metrics.forcedCkpts)
      // The window and the store both matter to the count.
      assert(inWindow.size < all.size, "no counted checkpoint fell outside the window")
      assert(rt.store.allMetas.count(m => m.counted && m.kind != InitialCkpt) < all.size,
        "the store still holds every checkpoint")
      if (c.q == reach && c.proto == "CIC") assert(rt.metrics.forcedCkpts > 0)
    }

  test("no protocol takes a checkpoint past the end of the run") {
    for (c <- cells) {
      val (rt, _, history) = c.run
      val late = history.store.allMetas.filter(_.takenAt > rt.cfg.endMicros)
      assert(late.isEmpty, s"${c.label}: ${late.take(3).map(m => m.id -> m.takenAt)}")
    }
  }
}

object RunWindowSpec {
  private val reach = Reachability(ReachConfig(nNodes = 3000L, ratePerSec = 0, durationMicros = 0))

  /** 3 s of warmup, then 9 s measured, optionally with a failure at 6 s. */
  private def sim(fail: Boolean) = SimConfig(warmupMicros = 3_000_000L, runMicros = 9_000_000L,
    failAtMicros = if (fail) Some(3_000_000L) else None,
    coorIntervalMicros = 2_000_000L, localIntervalMicros = 1_500_000L)

  final class Cell(val q: QueryDef, val proto: String, fail: Boolean) {
    def label: String = s"${q.name}/$proto ${if (fail) "with a failure" else "failure-free"}"

    /** The run at 3 workers and 150 events/s, under a [[Recorder]]; made once. */
    lazy val run: (Runtime, ExpResult, Recorder) = {
      var rec: Recorder = null
      val s = sim(fail)
      val (rt, res) = Experiment.run(ExpConfig(q, proto, 3, ratePerSec = 150.0, sim = s,
        inputHorizonMicros = Some(s.endMicros)), p => { rec = new Recorder(p); rec })
      (rt, res, rec)
    }
  }

  /** COOR, UNC and CIC on Q3, and UNC and CIC on the cyclic query, whose
    * CIC runs take forced checkpoints; each with and without a failure.
    */
  val cells: Seq[Cell] =
    for ((q, p) <- Seq(Q3 -> "COOR", Q3 -> "UNC", Q3 -> "CIC", reach -> "UNC", reach -> "CIC");
         fail <- Seq(false, true))
      yield new Cell(q, p, fail)
}
