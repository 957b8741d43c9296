package repro.dataflow

import scala.util.hashing.MurmurHash3

/** A parallel instance of a logical operator: `op` is the operator name,
  * `idx` its parallel subtask index (0-based). One instance of every
  * logical operator runs on worker `idx`, as in the paper's testbed.
  *
  * The hash code is computed once; it equals the case-class default, so
  * hash-map iteration orders (and with them the event sequence) do not
  * change.
  */
final case class InstanceId(op: String, idx: Int) {
  override val hashCode: Int = MurmurHash3.productHash(this)
  override def toString: String = s"$op[$idx]"
}

/** A directed FIFO channel between two operator instances. Its hash code
  * is cached like [[InstanceId]]'s.
  */
final case class ChannelId(from: InstanceId, to: InstanceId) {
  override val hashCode: Int = MurmurHash3.productHash(this)
  override def toString: String = s"$from->$to"
}

/** Protocol data piggybacked onto data messages by the CIC (HMNR) protocol.
  *
  * `bytes` is the measured wire size of this piggyback (delta-encoded
  * vector clock + bit-packed boolean vectors, see [[repro.checkpoint.Hmnr]]);
  * it is charged to serde cost and to the protocol-overhead byte counter.
  */
final case class Piggyback(
    lc: Long,
    ckpt: Array[Int],
    taken: Array[Boolean],
    greater: Array[Boolean],
    bytes: Int,
)

/** What a message carries: a data record or a COOR alignment marker. */
sealed trait MsgKind
case object Data                       extends MsgKind
final case class Marker(round: Int)    extends MsgKind

/** A message travelling on a channel.
  *
  * @param seq        per-channel sequence number (1-based, contiguous) —
  *                   the basis of deduplication and orphan detection
  * @param value      record payload (query-specific event type); null for markers
  * @param payloadBytes serialized payload size (drives serde cost + byte accounting)
  * @param piggyback  CIC piggyback, if the protocol attached one
  * @param srcTs      ingestion timestamp of the originating source event —
  *                   carried through operators for end-to-end latency
  */
final case class Msg(
    channel: ChannelId,
    seq: Long,
    kind: MsgKind,
    value: Any,
    payloadBytes: Int,
    piggyback: Option[Piggyback],
    srcTs: Long,
) {
  /** Total bytes on the wire, incl. a fixed frame and any piggyback. */
  def wireBytes: Int = Msg.FrameBytes + payloadBytes + piggybackBytes
  /** Wire size of the piggyback, 0 without one. */
  def piggybackBytes: Int = if (piggyback.isEmpty) 0 else piggyback.get.bytes
}

object Msg {
  /** Fixed per-message framing (headers, channel id, seq). */
  val FrameBytes: Int = 16
  /** Wire size of a COOR marker (round id + frame). */
  val MarkerBytes: Int = FrameBytes + 4
}
