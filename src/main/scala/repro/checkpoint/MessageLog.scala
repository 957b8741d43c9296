package repro.checkpoint

import repro.dataflow.{Msg, Wiring}
import scala.collection.immutable.ArraySeq

/** Sender-side durable in-flight message log (upstream backup).
  *
  * UNC/CIC append every outgoing data message; recovery extracts, per
  * channel, the messages with sequence numbers in
  * (receiver-checkpoint.lastReceived, sender-checkpoint.lastSent] — exactly
  * the in-flight channel state of the recovery line. Appends are modelled
  * as durable by the time of any failure (a write-ahead log on the send
  * path), which the paper's testbed also assumes.
  *
  * The log holds a contiguous seq window per channel. Collection drops its
  * front once no recovery line can ask for it again
  * ([[ChannelLog.collectThrough]]), and recovery drops its back past the
  * restored sender position ([[ChannelLog.truncateAfter]]), so that re-sent
  * seqs are appended in place.
  *
  * The channels are `wiring`'s: `log(i, k)` is the log of out-channel `k`
  * of instance `i`, so a channel's log is two array reads away.
  */
final class MessageLog(wiring: Wiring) {
  private var appended: Long = 0L
  private var bytes0: Long = 0L
  private var held: Long = 0L

  private val channels: Array[Array[ChannelLog]] =
    wiring.outCh.map(out => Array.fill(out.length)(new ChannelLog))

  /** The log of out-channel `k` of instance `i` (dense indices of the wiring). */
  def apply(i: Int, k: Int): ChannelLog = channels(i)(k)

  /** Bytes of every message ever appended. */
  def totalBytes: Long   = bytes0
  /** Messages ever appended, re-sent ones included. */
  def totalMessages: Long = appended
  /** Messages the log holds now. */
  def heldMessages: Long = held

  /** One channel's messages with seqs `base + 1 .. base + count`, in a
    * growable ring.
    */
  final class ChannelLog private[MessageLog] () {
    private var msgs = new Array[Msg](16)
    private var head = 0
    private var count = 0
    private var base = 0L

    private def at(i: Int): Int = (head + i) & (msgs.length - 1)

    /** Append the next message of this channel: its seq must follow the last. */
    def append(m: Msg): Unit = {
      require(m.seq == base + count + 1,
        s"log of ${m.channel} expects seq ${base + count + 1}, got ${m.seq}")
      if (count == msgs.length) {
        val grown = new Array[Msg](2 * msgs.length)
        val first = msgs.length - head
        System.arraycopy(msgs, head, grown, 0, first)
        System.arraycopy(msgs, 0, grown, first, head)
        msgs = grown
        head = 0
      }
      msgs(at(count)) = m
      count += 1
      appended += 1
      bytes0 += m.wireBytes
      held += 1
    }

    /** Held messages with loExcl < seq <= hiIncl, in seq order. */
    def range(loExcl: Long, hiIncl: Long): IndexedSeq[Msg] = {
      val from = (math.max(loExcl, base) - base).toInt
      val until = (math.min(hiIncl, base + count) - base).toInt
      if (from >= until) IndexedSeq.empty
      else ArraySeq.unsafeWrapArray(Array.tabulate(until - from)(i => msgs(at(from + i))))
    }

    /** Drop the messages with seq <= `seq`. */
    def collectThrough(seq: Long): Unit = {
      val n = math.max(0L, math.min(seq, base + count) - base).toInt
      var i = 0
      while (i < n) { msgs(at(i)) = null; i += 1 }
      head = at(n)
      count -= n
      base += n
      held -= n
    }

    /** Drop the messages with seq > `seq`. */
    def truncateAfter(seq: Long): Unit = {
      val keep = (math.max(seq, base) - base).toInt
      val n = count - math.min(keep, count)
      var i = count - n
      while (i < count) { msgs(at(i)) = null; i += 1 }
      count -= n
      held -= n
    }
  }
}
