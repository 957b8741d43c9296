package repro.queries

import org.scalatest.funsuite.AnyFunSuite
import repro.nexmark._
import scala.collection.mutable

/** Unit behaviour of the query operators: emission rules, snapshot/restore
  * roundtrips (snapshots unchanged by later records), window expiry.
  */
class OperatorLogicSpec extends AnyFunSuite {
  private def collect(): (mutable.ArrayBuffer[Any], Any => Unit) = {
    val buf = mutable.ArrayBuffer.empty[Any]
    (buf, buf += _)
  }

  test("Q3 join emits on second-side arrival, either order") {
    val j1 = new Q3JoinLogic
    val (o1, e1) = collect()
    j1.onRecord(NxPerson(1, "p1", "SF", "OR", 0), "filter", e1)
    j1.onRecord(NxAuction(9, 1, 10, 5, 100), "filter", e1)
    assert(o1.toSeq == Seq(Q3Out("p1", "SF", "OR", 9)))

    val j2 = new Q3JoinLogic
    val (o2, e2) = collect()
    j2.onRecord(NxAuction(9, 1, 10, 5, 100), "filter", e2)
    j2.onRecord(NxPerson(1, "p1", "SF", "OR", 0), "filter", e2)
    assert(o2.toSeq == o1.toSeq)
  }

  test("Q3 join matches a person with multiple auctions") {
    val j = new Q3JoinLogic
    val (o, e) = collect()
    j.onRecord(NxAuction(7, 1, 10, 0, 0), "f", e)
    j.onRecord(NxAuction(8, 1, 10, 0, 0), "f", e)
    j.onRecord(NxPerson(1, "p1", "SF", "CA", 0), "f", e)
    assert(o.toSet == Set(Q3Out("p1", "SF", "CA", 7), Q3Out("p1", "SF", "CA", 8)))
  }

  test("Q3 join snapshot/restore is a deep copy") {
    val j = new Q3JoinLogic
    val (_, e) = collect()
    j.onRecord(NxPerson(1, "p1", "SF", "CA", 0), "f", e)
    val snap = j.snapshot()
    j.onRecord(NxPerson(2, "p2", "SF", "CA", 0), "f", e)
    val j2 = new Q3JoinLogic
    j2.restore(snap)
    val (o, e2) = collect()
    j2.onRecord(NxAuction(7, 2, 10, 0, 0), "f", e2)
    assert(o.isEmpty, "restored state must not contain the post-snapshot person")
    j2.onRecord(NxAuction(8, 1, 10, 0, 0), "f", e2)
    assert(o.size == 1)
  }

  test("Q8 window join only matches within the same window") {
    val w = NexmarkGen.WindowMicros
    val j = new Q8JoinLogic(w, slackMicros = 3600L * 1000000L)
    val (o, e) = collect()
    j.onRecord(NxPerson(1, "p1", "SF", "CA", 100), "src", e)
    j.onRecord(NxAuction(5, 1, 3, w + 100, 0), "src", e) // next window
    assert(o.isEmpty)
    j.onRecord(NxAuction(6, 1, 3, 200, 0), "src", e) // same window
    assert(o.toSeq == Seq(Q8Out(1, "p1", 0)))
  }

  test("Q8 emits once per matching pair (duplicate auctions => duplicate outputs)") {
    val j = new Q8JoinLogic(NexmarkGen.WindowMicros, 3600L * 1000000L)
    val (o, e) = collect()
    j.onRecord(NxAuction(5, 1, 3, 100, 0), "src", e)
    j.onRecord(NxAuction(6, 1, 3, 200, 0), "src", e)
    j.onRecord(NxPerson(1, "p1", "SF", "CA", 300), "src", e)
    assert(o.size == 2)
  }

  test("Q8 expires closed windows past the slack") {
    val w = NexmarkGen.WindowMicros
    val j = new Q8JoinLogic(w, slackMicros = w)
    val (o, e) = collect()
    j.onRecord(NxPerson(1, "p1", "SF", "CA", 100), "src", e)
    // Jump far ahead: window 0 is long closed.
    j.onRecord(NxPerson(2, "p2", "SF", "CA", 10 * w), "src", e)
    assert(j.stateBytes < 100, "expired window state should be dropped")
    j.onRecord(NxAuction(5, 1, 3, 10 * w + 1, 0), "src", e)
    assert(o.isEmpty)
  }

  test("Q12 counts per (bidder, window) and emits running counts") {
    val w = NexmarkGen.WindowMicros
    val c = new Q12CountLogic(w, 3600L * 1000000L)
    val (o, e) = collect()
    c.onRecord(NxBid(1, 42, 10.0, 100), "src", e)
    c.onRecord(NxBid(2, 42, 10.0, 200), "src", e)
    c.onRecord(NxBid(3, 42, 10.0, w + 100), "src", e)
    assert(o.toSeq == Seq(Q12Out(42, 0, 1), Q12Out(42, 0, 2), Q12Out(42, 1, 1)))
  }

  test("Q12 snapshot/restore preserves counts") {
    val c = new Q12CountLogic(NexmarkGen.WindowMicros, 3600L * 1000000L)
    val (_, e) = collect()
    c.onRecord(NxBid(1, 42, 10.0, 100), "src", e)
    val snap = c.snapshot()
    c.onRecord(NxBid(1, 42, 10.0, 200), "src", e)
    val c2 = new Q12CountLogic(NexmarkGen.WindowMicros, 3600L * 1000000L)
    c2.restore(snap)
    val (o, e2) = collect()
    c2.onRecord(NxBid(1, 42, 10.0, 300), "src", e2)
    assert(o.toSeq == Seq(Q12Out(42, 0, 2)), "restored count must be 1, next bid => 2")
  }

  /** Reference Q12: counts keyed by (bidder, window), expired by scanning
    * every key on each watermark bump. Returns the emissions and the state
    * size after each bid, by `Q12CountLogic.stateBytes`'s formula.
    */
  private def perKeyQ12(w: Long, slack: Long, bids: Seq[NxBid]): Seq[(Q12Out, Long)] = {
    val counts = mutable.Map.empty[(Long, Long), Long]
    var watermark = 0L
    bids.map { b =>
      if (b.ts > watermark) {
        watermark = b.ts
        val expired = math.max(0L, watermark - slack) / w
        counts.keysIterator.filter(_._2 < expired - 1).toList.foreach(counts.remove)
      }
      val key = (b.bidder, b.ts / w)
      val c = counts.getOrElse(key, 0L) + 1L
      counts(key) = c
      (Q12Out(key._1, key._2, c), counts.size.toLong * 40L + 16L)
    }
  }

  test("Q12 expires closed windows past the slack, whole windows at a time") {
    val w = NexmarkGen.WindowMicros
    val c = new Q12CountLogic(w, slackMicros = w)
    val (o, e) = collect()
    val bytes = mutable.ArrayBuffer.empty[Long]
    def bid(bidder: Long, ts: Long): Unit = {
      c.onRecord(NxBid(1, bidder, 1.0, ts), "src", e); bytes += c.stateBytes
    }
    val trace = Seq(
      (42L, 100L), (43L, 200L), (42L, w + 100), // windows 0 and 1
      (44L, 3 * w + 50),                        // window 0 is past window + slack
      (42L, w + 300),                           // window 1 is still live
      (43L, 10 * w),                            // every earlier window expires
      (43L, 300L),                              // late bid to an expired window
      (43L, 10 * w + 1),
    )
    trace.foreach { case (b, ts) => bid(b, ts) }
    assert(bytes(3) < bytes(2), "expired window state should be dropped")
    assert(o(4) == Q12Out(42, 1, 2), "a bid in a live window keeps counting")
    assert(bytes(5) == 56L, "only the newest window is left")
    val expected = perKeyQ12(w, w, trace.map { case (b, ts) => NxBid(1, b, 1.0, ts) })
    assert(o.toSeq == expected.map(_._1))
    assert(bytes.toSeq == expected.map(_._2))
  }

  test("multiset sink counts duplicates; upsert sink keeps the max") {
    val ms = new MultisetSink
    ms.onRecord("a", "", _ => ()); ms.onRecord("a", "", _ => ())
    assert(ms.counts("a") == 2)
    val us = new UpsertMaxSink({ case Q12Out(b, w, _) => (b, w) },
      { case Q12Out(_, _, c) => c })
    us.onRecord(Q12Out(1, 0, 5), "", _ => ())
    us.onRecord(Q12Out(1, 0, 3), "", _ => ())
    assert(us.latest((1L, 0L)) == 5)
  }

  test("sink snapshot/restore roundtrips") {
    val ms = new MultisetSink
    ms.onRecord("x", "", _ => ())
    val snap = ms.snapshot()
    ms.onRecord("y", "", _ => ())
    val ms2 = new MultisetSink
    ms2.restore(snap)
    assert(ms2.counts.toMap == Map[Any, Long]("x" -> 1L))
  }

  test("FilterMap passes and drops per predicate; PassThrough forwards everything") {
    val f = new FilterMap({ case i: Int if i % 2 == 0 => Some(i * 10); case _ => None })
    val (o, e) = collect()
    (1 to 4).foreach(i => f.onRecord(i, "", e))
    assert(o.toSeq == Seq(20, 40))
    val p = new PassThrough
    val (o2, e2) = collect()
    p.onRecord("z", "", e2)
    assert(o2.toSeq == Seq("z"))
  }
}
