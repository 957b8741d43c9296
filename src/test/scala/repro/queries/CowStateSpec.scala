package repro.queries

import org.scalatest.funsuite.AnyFunSuite
import repro.nexmark._

/** The cost shape of copy-on-write state: a snapshot copies nothing, the
  * first write after it copies only the table it touches, and later writes
  * in the same epoch go to that copy in place. (That no snapshot is ever
  * written again is `SnapshotProps`'s business.)
  */
class CowStateSpec extends AnyFunSuite {
  private val W = NexmarkGen.WindowMicros
  private val ignore: Any => Unit = _ => ()

  /** Asserts that `later` holds the same table object as `earlier` in every
    * window but `copied`, and a different one in `copied`.
    */
  private def sharesAllBut[V](copied: Option[Long], earlier: CowWindows.Snapshot[V],
      later: CowWindows.Snapshot[V]): Unit = {
    assert(later.keySet == earlier.keySet)
    earlier.foreach { case (w, t) =>
      if (copied.contains(w)) assert(later(w) ne t, s"window $w was not copied")
      else assert(later(w) eq t, s"window $w was copied")
    }
  }

  test("windows: the first write of an epoch copies, later ones write in place") {
    val cw = new CowWindows[Long]
    val first = cw.write(0)
    first.update(1, 1L)
    assert(cw.write(0) eq first)
    val held = cw.snapshot()
    val copy = cw.write(0)
    assert(copy ne first)
    copy.update(1, 2L)
    assert(cw.write(0) eq copy)
    assert(cw.read(0) eq copy)
    assert(held(0).table(1) == 1L && cw.read(0)(1) == 2L)
  }

  test("Q12: a bid after a snapshot copies only its window") {
    val c = new Q12CountLogic(W, slackMicros = 10 * W)
    def snap() = c.snapshot().asInstanceOf[(CowWindows.Snapshot[Long], Long)]._1
    for (w <- 0 to 3; bidder <- 1 to 3) c.onRecord(NxBid(1, bidder, 1.0, w * W + bidder), "src", ignore)
    val s1 = snap()
    c.onRecord(NxBid(1, 2, 1.0, W + 9), "src", ignore)
    c.onRecord(NxBid(1, 3, 1.0, W + 9), "src", ignore)
    val s2 = snap()
    sharesAllBut(Some(1L), s1, s2)
    assert(s1(1).table(2) == 1L && s2(1).table(2) == 2L)
    val s3 = snap()
    assert(s3 == s2)
    sharesAllBut(None, s2, s3)
  }

  test("Q8: a record after a snapshot copies only its window on its own side") {
    val j = new Q8JoinLogic(W, slackMicros = 10 * W)
    type Q8Snap = (CowWindows.Snapshot[String], CowWindows.Snapshot[Long], Long)
    def snap() = j.snapshot().asInstanceOf[Q8Snap]
    for (w <- 0 to 3; id <- 1 to 3) {
      j.onRecord(NxPerson(id, s"p$id", "SF", "CA", w * W + id), "src", ignore)
      j.onRecord(NxAuction(10 * id, id, 3, w * W + id, 0), "src", ignore)
    }
    val (p1, a1, _) = snap()
    j.onRecord(NxPerson(4, "p4", "SF", "CA", 2 * W + 9), "src", ignore)
    val (p2, a2, _) = snap()
    sharesAllBut(Some(2L), p1, p2)
    sharesAllBut(None, a1, a2)
    j.onRecord(NxAuction(50, 1, 3, W + 9, 0), "src", ignore)
    val (p3, a3, _) = snap()
    sharesAllBut(None, p2, p3)
    sharesAllBut(Some(1L), a2, a3)
    assert(a2(1).table(1) == 1L && a3(1).table(1) == 2L)
    val (p4, a4, _) = snap()
    assert(p4 == p3 && a4 == a3)
    sharesAllBut(None, p3, p4)
    sharesAllBut(None, a3, a4)
  }

  test("upsert-max sink: a snapshot copies nothing until the next write") {
    val us = new UpsertMaxSink({ case Q12Out(b, w, _) => (b, w) },
      { case Q12Out(_, _, c) => c })
    us.onRecord(Q12Out(1, 0, 5), "", ignore)
    val live = us.latest
    val s1 = us.snapshot().asInstanceOf[AnyRef]
    val s2 = us.snapshot().asInstanceOf[AnyRef]
    assert(s2 eq s1)
    us.onRecord(Q12Out(1, 0, 3), "", ignore) // no greater measure: nothing to write
    assert(us.latest eq live)
    us.onRecord(Q12Out(1, 0, 6), "", ignore)
    val copy = us.latest
    assert(copy ne live)
    us.onRecord(Q12Out(2, 0, 1), "", ignore)
    assert(us.latest eq copy)
    assert(live == Map[Any, Long]((1L, 0L) -> 5L))
    assert(copy == Map[Any, Long]((1L, 0L) -> 6L, (2L, 0L) -> 1L))
  }
}
