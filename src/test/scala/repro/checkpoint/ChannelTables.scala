package repro.checkpoint

import repro.dataflow.{ChannelId, Graph, InstanceId}
import scala.collection.immutable.ArraySeq

/** Per-instance channel tables, as `Graph.wiring` lays them out: instance
  * `ids(j)` has input channels `inCh(j)` and output channels `outCh(j)`.
  * Tests convert at this boundary between the `ChannelId`-keyed vectors
  * they write by hand and the dense vectors a [[CkptMeta]] holds, indexed
  * like `Instance.inCh`/`outCh`.
  */
final class ChannelTables(
    val ids: IndexedSeq[InstanceId],
    val inCh: IndexedSeq[IndexedSeq[ChannelId]],
    val outCh: IndexedSeq[IndexedSeq[ChannelId]],
) {
  private val at = ids.zipWithIndex.toMap
  private val inPos = inCh.flatMap(_.zipWithIndex).toMap
  private val outPos = outCh.flatMap(_.zipWithIndex).toMap

  /** Every channel, sender by sender in `ids` order. */
  def channels: IndexedSeq[ChannelId] = outCh.flatten

  /** The recovery-line topology of these tables. */
  def topology: LineTopology = LineTopology(ids, inCh, outCh)

  /** `id`'s sent vector, from a map that holds exactly its output channels. */
  def sent(id: InstanceId, v: Map[ChannelId, Long]): ArraySeq.ofLong = dense(outCh(at(id)), v)
  /** `id`'s received vector, from a map that holds exactly its input channels. */
  def received(id: InstanceId, v: Map[ChannelId, Long]): ArraySeq.ofLong = dense(inCh(at(id)), v)

  /** Checkpoint `x` of a hand-written history of `id`: taken and durable at
    * `x`, the initial one when `x` is 0, with the vectors `sent` and `recv`.
    */
  def meta(id: InstanceId, x: Int, sent: Map[ChannelId, Long], recv: Map[ChannelId, Long])
      : CkptMeta =
    CkptMeta(id, x, if (x == 0) InitialCkpt else LocalCkpt, x.toLong, x.toLong, 0L, (),
      this.sent(id, sent), received(id, recv), 0L, counted = true, syncMicros = 0L)

  /** A checkpoint's sent vector, keyed by channel. */
  def sentMap(m: CkptMeta): Map[ChannelId, Long] = outCh(at(m.id)).zip(m.lastSent).toMap
  /** A checkpoint's received vector, keyed by channel. */
  def receivedMap(m: CkptMeta): Map[ChannelId, Long] = inCh(at(m.id)).zip(m.lastReceived).toMap

  /** What checkpoint `m` of `ch.from` had sent on `ch`. */
  def sentOn(m: CkptMeta, ch: ChannelId): Long = {
    require(m.id == ch.from, s"$ch does not leave ${m.id}")
    m.lastSent(outPos(ch))
  }
  /** What checkpoint `m` of `ch.to` had received on `ch`. */
  def receivedOn(m: CkptMeta, ch: ChannelId): Long = {
    require(m.id == ch.to, s"$ch does not reach ${m.id}")
    m.lastReceived(inPos(ch))
  }

  private def dense(chs: IndexedSeq[ChannelId], v: Map[ChannelId, Long]): ArraySeq.ofLong = {
    require(v.keySet == chs.toSet, s"vector over ${v.keySet}, channels $chs")
    new ArraySeq.ofLong(chs.map(v).toArray)
  }
}

object ChannelTables {
  /** The tables of instances `ids` over `channels`, numbered in the order
    * given, first occurrence first.
    */
  def apply(ids: IndexedSeq[InstanceId], channels: Seq[ChannelId]): ChannelTables = {
    val chs = channels.distinct.toIndexedSeq
    new ChannelTables(ids, ids.map(id => chs.filter(_.to == id)),
      ids.map(id => chs.filter(_.from == id)))
  }

  /** A hand-written history: per instance, its checkpoints' (sent,
    * received) vectors, oldest first. Returns the tables of every channel
    * the vectors name and the history as [[meta]]s over them.
    */
  def history(vectors: Map[InstanceId, Seq[(Map[ChannelId, Long], Map[ChannelId, Long])]])
      : (ChannelTables, Map[InstanceId, IndexedSeq[CkptMeta]]) = {
    val ids = vectors.keys.toIndexedSeq.sortBy(_.toString)
    val t = apply(ids, ids.flatMap(id => vectors(id).flatMap { case (s, r) => s.keys ++ r.keys }))
    t -> vectors.map { case (id, vs) =>
      id -> vs.indices.map(x => t.meta(id, x, vs(x)._1, vs(x)._2))
    }
  }

  /** The wiring's tables of `graph`. */
  def apply(graph: Graph): ChannelTables = {
    val w = graph.wiring
    new ChannelTables(w.instances, w.inCh.toIndexedSeq, w.outCh.toIndexedSeq)
  }
}
