package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Tables

/** Table I: qualitative protocol feature matrix, derived from the
  * implementations and asserted against the paper's matrix.
  */
class Table1Bench extends AnyFunSuite {
  test("TABLE I — protocol feature matrix") {
    val rendered = Tables.renderTable1()
    println(rendered)
    // Paper Table I, row by row (o = has feature, - = does not).
    val expected = Map(
      "Blocking (markers)"      -> Seq(true, false, false),
      "In-flight logging"       -> Seq(false, true, true),
      "Deduplication required"  -> Seq(false, true, true),
      "Message overhead"        -> Seq(false, false, true),
      "Independent checkpoints" -> Seq(false, true, true),
      "Straggler stalls"        -> Seq(true, false, false),
      "Unused checkpoints"      -> Seq(false, true, true),
      "Forced checkpoints"      -> Seq(false, false, true),
    )
    val protos = Tables.Protocols.map(repro.core.Experiment.protocolFor)
    val rows = Tables.Table1Rows.toMap
    for ((label, exp) <- expected)
      assert(protos.map(p => rows(label)(p.features)) == exp, label)
  }
}
