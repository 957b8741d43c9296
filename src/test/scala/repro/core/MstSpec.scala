package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.queries._

/** MST search: sanity of the bisection and the paper's qualitative MST
  * ordering (Fig. 7 shape): CIC's overhead lowers its sustainable rate.
  */
class MstSpec extends AnyFunSuite {

  test("analytic cap scales with parallelism") {
    assert(Mst.analyticCap(Q1, 4) == 2 * Mst.analyticCap(Q1, 2))
  }

  test("found MST is positive and below the analytic cap x1.3") {
    val mst = Mst.find(Q1, "UNC", 2)
    assert(mst > 0)
    assert(mst <= Mst.analyticCap(Q1, 2) * 1.3)
  }

  test("the system is stable at 80% of the found MST") {
    val mst = Mst.find(Q12(), "COOR", 2)
    assert(Mst.stable(Q12(), "COOR", 2, 0.8 * mst, 0.0))
  }

  test("the system is unstable well above the analytic cap") {
    assert(!Mst.stable(Q1, "UNC", 2, Mst.analyticCap(Q1, 2) * 4.0, 0.0))
  }

  test("MST(CIC) <= MST(COOR): piggyback serde cost eats throughput (Fig. 7 shape)") {
    val coor = Mst.find(Q3, "COOR", 2)
    val cic = Mst.find(Q3, "CIC", 2)
    assert(cic <= coor * 1.05, s"CIC $cic vs COOR $coor")
  }

  test("MST search is deterministic (equal on repeat call)") {
    val a = Mst.find(Q1, "UNC", 2)
    val b = Mst.find(Q1, "UNC", 2)
    assert(a == b)
  }
}
