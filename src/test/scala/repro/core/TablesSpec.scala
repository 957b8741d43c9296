package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.queries._

/** The sweep's memo of NexMark cells. */
class TablesSpec extends AnyFunSuite {

  test("two Q12 configurations get cells of their own, each memoized (2 workers)") {
    val slow = Q12(slackMicros = 3_600_000_000L)
    val a = Tables.nexmarkCell(Q12(), "UNC", 2)
    val b = Tables.nexmarkCell(slow, "UNC", 2)
    assert(a.cfg.query == Q12() && b.cfg.query == slow)
    assert(Tables.nexmarkCell(Q12(), "UNC", 2) eq a)
  }
}
