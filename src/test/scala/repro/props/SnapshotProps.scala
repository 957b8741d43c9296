package repro.props

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.propBoolean
import repro.dataflow.OperatorLogic
import repro.nexmark._
import repro.queries._
import repro.queries.Reach._

/** ScalaCheck properties of the snapshot contract of every stateful
  * operator: a snapshot is never written again, so one taken after k
  * records is unchanged by the records that follow, a fresh instance
  * restored from it continues exactly as the instance that took it, and it
  * can be restored any number of times.
  */
object SnapshotProps extends Properties("Snapshot") {

  private val W = NexmarkGen.WindowMicros

  /** Records whose event time advances a quarter window per record, each up
    * to half a window early or late, so windows open, fill and expire (the
    * windowed operators run with a one-window slack).
    */
  private def stream(record: Long => Gen[Any]): Gen[Vector[Any]] = Gen.sized { n =>
    Gen.sequence[Vector[Any], Any]((0 until n).map { i =>
      Gen.choose(-W / 2, W / 2).flatMap(j => record(math.max(0L, i * W / 4 + j)))
    })
  }

  // Few keys, so records collide on them.
  private val key = Gen.choose(1L, 5L)

  private def person(ts: Long): Gen[Any] =
    for (id <- key; st <- Gen.oneOf("OR", "ID", "CA")) yield NxPerson(id, s"p$id", "SF", st, ts)
  private def auction(ts: Long): Gen[Any] =
    for (id <- Gen.choose(1L, 40L); seller <- key) yield NxAuction(id, seller, 10, ts, 0L)
  private def bid(ts: Long): Gen[Any] =
    for (a <- Gen.choose(1L, 40L); bidder <- key) yield NxBid(a, bidder, 1.0, ts)

  private def reachEvent(ts: Long): Gen[Any] = Gen.oneOf(
    for (u <- key; v <- key) yield AddLink(u, v, ts),
    for (id <- Gen.choose(1L, 3L); n <- key) yield AddSource(id, n, ts),
    for (u <- key; v <- key) yield DelLink(u, v, ts),
    Gen.choose(1L, 3L).map(DelSource(_, ts)),
    for (id <- Gen.choose(1L, 3L); path <- Gen.choose(1, 4).flatMap(Gen.listOfN(_, key)))
      yield SourceFact(id, path.last, path.toVector),
  )

  private def upsertMax() = new UpsertMaxSink(
    { case (k, _) => k; case x => x }, { case (_, v: Long) => v; case _ => 0L })

  private def feed(logic: OperatorLogic, records: Seq[Any]): Vector[Any] = {
    val out = Vector.newBuilder[Any]
    records.foreach(r => logic.onRecord(r, "up", out += _))
    out.result()
  }

  /** A record stream and a split point in it. */
  private def split(records: Gen[Vector[Any]]): Gen[(Vector[Any], Int)] =
    records.flatMap(rs => Gen.choose(0, rs.size).map(rs -> _))

  private def isolatedAndRestorable(make: () => OperatorLogic, records: Gen[Vector[Any]]) =
    Prop.forAll(split(records)) { case (rs, k) =>
      val (prefix, suffix) = rs.splitAt(k)
      val live = make()
      feed(live, prefix)
      val held = live.snapshot()
      val liveOut = feed(live, suffix)
      val reference = make()
      feed(reference, prefix)
      val restored = make()
      restored.restore(held)
      val restoredOut = feed(restored, suffix)
      (held == reference.snapshot()) :| "held snapshot changed by later records" &&
      (restoredOut == liveOut) :| "restored instance emits differently" &&
      (restored.snapshot() == live.snapshot()) :| "restored instance ends in another state" &&
      (restored.stateBytes == live.stateBytes) :| "restored instance reports another size"
    }

  /** One instance restores the snapshot taken after k records, is fed the
    * rest and snapshotted, then restores the same snapshot again and is fed
    * the same rest: both rounds emit the same records and end in the same
    * state, so neither round wrote into the snapshot it adopted. The
    * instance that took the snapshot also took one after every earlier
    * record, so the snapshot's parts date from epochs of different ages.
    */
  private def restorableTwice(make: () => OperatorLogic, records: Gen[Vector[Any]]) =
    Prop.forAll(split(records)) { case (rs, k) =>
      val (prefix, suffix) = rs.splitAt(k)
      val live = make()
      prefix.foreach { r => feed(live, Seq(r)); live.snapshot() }
      val held = live.snapshot()
      val restored = make()
      def round() = {
        restored.restore(held)
        val out = feed(restored, suffix)
        (out, restored.snapshot(), restored.stateBytes)
      }
      val (out1, end1, bytes1) = round()
      val (out2, end2, bytes2) = round()
      (out2 == out1) :| "second round emits differently" &&
      (end2 == end1) :| "second round ends in another state" &&
      (bytes2 == bytes1) :| "second round reports another size"
    }

  property("multiset sink") =
    isolatedAndRestorable(() => new MultisetSink, stream(_ => key))
  property("upsert-max sink") =
    isolatedAndRestorable(upsertMax, stream(_ => Gen.zip(key, Gen.choose(0L, 20L))))
  property("Q3 join") =
    isolatedAndRestorable(() => new Q3JoinLogic,
      stream(ts => Gen.oneOf(person(ts), auction(ts))))
  property("Q8 window join") =
    isolatedAndRestorable(() => new Q8JoinLogic(W, slackMicros = W),
      stream(ts => Gen.oneOf(person(ts), auction(ts))))
  property("Q12 window count") =
    isolatedAndRestorable(() => new Q12CountLogic(W, slackMicros = W), stream(bid))
  property("reachability join") =
    isolatedAndRestorable(() => new ReachJoinLogic, stream(reachEvent))

  property("multiset sink restored twice") =
    restorableTwice(() => new MultisetSink, stream(_ => key))
  property("upsert-max sink restored twice") =
    restorableTwice(upsertMax, stream(_ => Gen.zip(key, Gen.choose(0L, 20L))))
  property("Q3 join restored twice") =
    restorableTwice(() => new Q3JoinLogic, stream(ts => Gen.oneOf(person(ts), auction(ts))))
  property("Q8 window join restored twice") =
    restorableTwice(() => new Q8JoinLogic(W, slackMicros = W),
      stream(ts => Gen.oneOf(person(ts), auction(ts))))
  property("Q12 window count restored twice") =
    restorableTwice(() => new Q12CountLogic(W, slackMicros = W), stream(bid))
  property("reachability join restored twice") =
    restorableTwice(() => new ReachJoinLogic, stream(reachEvent))
}
