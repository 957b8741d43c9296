package repro.perfbench

import repro.core.ExpConfig
import repro.dataflow.SimConfig
import repro.queries._

/** The benchmark's own check, on cells small enough to run in seconds:
  *  - a traced pass gives the same fingerprints as an untraced one, for a
  *    logged protocol and for COOR (whose result freeze pattern-matches);
  *  - a corrupted reference digest makes every cell fail;
  *  - the MST bisection replay ends at a rate `Mst.find` found.
  *
  * Run with `python3 perfbench/run.py --self-test`; exits 1 on a failure.
  */
object SelfTest {

  private val tiny = CellWorkload("tiny", { seed =>
    val sim = SimConfig(warmupMicros = 1_000_000L, runMicros = 14_000_000L,
      failAtMicros = Some(4_000_000L), coorIntervalMicros = 2_000_000L,
      localIntervalMicros = 1_500_000L)
    Seq("CIC", "COOR").map { p =>
      Cell(s"Q3/$p", ExpConfig(Q3, p, 3, 150.0, sim = sim,
        inputHorizonMicros = Some(8_000_000L), seed = seed))
    }
  })

  def main(args: Array[String]): Unit = {
    var failures = 0
    def expect(ok: Boolean, what: String): Unit = {
      println((if (ok) "ok   " else "FAIL ") + what)
      if (!ok) failures += 1
    }

    val r = new CellRunner(tiny, seed = 3L)
    r.prepare()
    r.pass(traced = false, 0)
    r.pass(traced = true, 0)
    val outs = r.finish()
    expect(outs.forall(_.failure.isEmpty),
      s"traced and untraced passes agree and pass their checks: ${outs.flatMap(_.failure)}")
    expect(outs.forall(_.fingerprint.nonEmpty), "every cell has a fingerprint")

    val bad = new CellRunner(tiny, seed = 3L, corruptDigest = true)
    bad.prepare()
    bad.pass(traced = false, 0)
    expect(bad.finish().forall(_.failure.exists(_.contains("sink digest"))),
      "a corrupted reference digest fails every cell")

    val q = Q3
    val found = repro.core.Mst.find(q, "UNC", 3)
    expect(MstRunner.probedRates(q, 3, found).size == 7, s"the bisection replay reaches $found")
    expect(scala.util.Try(MstRunner.probedRates(q, 3, found * 1.01)).isFailure,
      "the bisection replay rejects a rate the search cannot end at")

    if (failures > 0) sys.exit(1)
  }
}
