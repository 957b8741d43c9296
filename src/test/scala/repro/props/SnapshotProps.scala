package repro.props

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.propBoolean
import repro.dataflow.OperatorLogic
import repro.nexmark._
import repro.queries._
import repro.queries.Reach._

/** ScalaCheck properties of the snapshot contract of every stateful
  * operator: a snapshot is an immutable value, so one taken after k records
  * is unchanged by the records that follow, and a fresh instance restored
  * from it continues exactly as the instance that took it.
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

  private def isolatedAndRestorable(make: () => OperatorLogic, records: Gen[Vector[Any]]) =
    Prop.forAll(records.flatMap(rs => Gen.choose(0, rs.size).map(rs -> _))) { case (rs, k) =>
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
}
