package repro.checkpoint

import repro.dataflow.{ChannelId, Msg}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

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
  * front once no recovery line can ask for it again ([[collectThrough]]),
  * and recovery drops its back past the restored sender position
  * ([[truncateAfter]]), so that re-sent seqs are appended in place.
  */
final class MessageLog {
  private val byChannel = mutable.Map.empty[ChannelId, MessageLog.ChannelLog]
  private var appended: Long = 0L
  private var bytes0: Long = 0L
  private var held: Long = 0L

  def append(m: Msg): Unit = {
    byChannel.getOrElseUpdate(m.channel, new MessageLog.ChannelLog).append(m)
    appended += 1
    bytes0 += m.wireBytes
    held += 1
  }

  /** Held messages with loExcl < seq <= hiIncl, in seq order. */
  def range(ch: ChannelId, loExcl: Long, hiIncl: Long): IndexedSeq[Msg] =
    byChannel.get(ch).fold(IndexedSeq.empty[Msg])(_.range(loExcl, hiIncl))

  /** Drop the messages of `ch` with seq <= `seq`. */
  def collectThrough(ch: ChannelId, seq: Long): Unit =
    byChannel.get(ch).foreach(c => held -= c.dropThrough(seq))

  /** Drop the messages of `ch` with seq > `seq`. */
  def truncateAfter(ch: ChannelId, seq: Long): Unit =
    byChannel.get(ch).foreach(c => held -= c.dropAfter(seq))

  /** Bytes of every message ever appended. */
  def totalBytes: Long   = bytes0
  /** Messages ever appended, re-sent ones included. */
  def totalMessages: Long = appended
  /** Messages the log holds now. */
  def heldMessages: Long = held
}

object MessageLog {

  /** One channel's messages with seqs `base + 1 .. base + count`, in a
    * growable ring.
    */
  private final class ChannelLog {
    private var msgs = new Array[Msg](16)
    private var head = 0
    private var count = 0
    private var base = 0L

    private def at(i: Int): Int = (head + i) & (msgs.length - 1)

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
    }

    def range(loExcl: Long, hiIncl: Long): IndexedSeq[Msg] = {
      val from = (math.max(loExcl, base) - base).toInt
      val until = (math.min(hiIncl, base + count) - base).toInt
      if (from >= until) IndexedSeq.empty
      else ArraySeq.unsafeWrapArray(Array.tabulate(until - from)(i => msgs(at(from + i))))
    }

    /** Drops seqs <= `seq`; returns how many were dropped. */
    def dropThrough(seq: Long): Int = {
      val n = math.max(0L, math.min(seq, base + count) - base).toInt
      var i = 0
      while (i < n) { msgs(at(i)) = null; i += 1 }
      head = at(n)
      count -= n
      base += n
      n
    }

    /** Drops seqs > `seq`; returns how many were dropped. */
    def dropAfter(seq: Long): Int = {
      val keep = (math.max(seq, base) - base).toInt
      val n = count - math.min(keep, count)
      var i = count - n
      while (i < count) { msgs(at(i)) = null; i += 1 }
      count -= n
      n
    }
  }
}
