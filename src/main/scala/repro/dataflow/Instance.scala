package repro.dataflow

import repro.checkpoint.CkptKind

/** FIFO inbox of one input channel: a growable ring of (arrival, message). */
final class Inbox {
  private var arrivals = new Array[Long](4)
  private var msgs = new Array[Msg](4)
  private var head = 0
  private var count = 0

  def size: Int = count
  def isEmpty: Boolean = count == 0
  def nonEmpty: Boolean = count > 0
  /** Arrival time of the oldest message (the inbox must be non-empty). */
  def headArrival: Long = arrivals(head)

  def enqueue(arrival: Long, msg: Msg): Unit = {
    if (count == msgs.length) grow()
    val i = (head + count) & (msgs.length - 1)
    arrivals(i) = arrival
    msgs(i) = msg
    count += 1
  }

  def dequeue(): Msg = {
    if (count == 0) throw new NoSuchElementException("empty inbox")
    val m = msgs(head)
    msgs(head) = null
    head = (head + 1) & (msgs.length - 1)
    count -= 1
    m
  }

  def clear(): Unit = {
    java.util.Arrays.fill(msgs.asInstanceOf[Array[AnyRef]], null)
    head = 0
    count = 0
  }

  /** Double the capacity (a power of two), unrolling the ring to start at 0. */
  private def grow(): Unit = {
    val cap = 2 * msgs.length
    val a = new Array[Long](cap)
    val m = new Array[Msg](cap)
    val first = msgs.length - head
    System.arraycopy(arrivals, head, a, 0, first)
    System.arraycopy(arrivals, 0, a, first, head)
    System.arraycopy(msgs, head, m, 0, first)
    System.arraycopy(msgs, 0, m, first, head)
    arrivals = a
    msgs = m
    head = 0
  }
}

/** Mutable runtime state of one operator instance.
  *
  * Holds per-channel FIFO inboxes, channel blocking flags (COOR alignment),
  * sequence counters and the exactly-once ledger hook (sequence contiguity
  * is asserted by the Runtime when a record is applied). Everything
  * per-channel is an array indexed by the channel's position in `inCh` or
  * `outCh`; `index` is the instance's position in [[Graph.wiring]].
  */
final class Instance(
    val index: Int,
    val id: InstanceId,
    val spec: OperatorSpec,
    val logic: OperatorLogic,
    val inCh: IndexedSeq[ChannelId],
    val outCh: IndexedSeq[ChannelId],
) {
  /** FIFO inbox per input channel. */
  val inbox: Array[Inbox] = Array.fill(inCh.size)(new Inbox)

  /** The (immutable) wake-up event of this instance, shared by every schedule. */
  val wake: Wake = Wake(index)

  /** Instance is busy (processing/snapshotting) until this instant. */
  var busyUntil: Long = 0L

  /** Per-out-channel sequence counters (last assigned). */
  val lastSent: Array[Long] = new Array[Long](outCh.size)

  /** Per-in-channel last *applied* sequence (dedup + exactly-once ledger). */
  val lastReceived: Array[Long] = new Array[Long](inCh.size)

  /** Next replayable-input offset (sources only). */
  var srcOffset: Long = 0L

  /** Index the next checkpoint of this instance will get (0 = initial). */
  var nextCkptIdx: Int = 1

  /** A checkpoint requested while busy, executed at the next idle point. */
  var pendingCkpt: Option[CkptKind] = None

  /** COOR: input channels blocked because the current round's marker
    * arrived on them.
    */
  private val blocked = new Array[Boolean](inCh.size)
  private var blockedCount = 0

  def isIdleAt(t: Long): Boolean = busyUntil <= t

  /** Block input channel `k` (its index in `inCh`): [[nextChannel]] skips it. */
  def block(k: Int): Unit =
    if (!blocked(k)) { blocked(k) = true; blockedCount += 1 }

  /** Whether the current round's marker has arrived on every input channel. */
  def allInputsBlocked: Boolean = blockedCount == inCh.size

  def unblockAll(): Unit = {
    java.util.Arrays.fill(blocked, false)
    blockedCount = 0
  }

  /** Input channel with the earliest pending arrival among unblocked
    * non-empty inboxes (the first in `inCh` order on ties), or -1.
    */
  def nextChannel: Int = {
    var best = -1
    var bestT = 0L
    var k = 0
    while (k < inbox.length) {
      val q = inbox(k)
      if (q.nonEmpty && !blocked(k) && (best < 0 || q.headArrival < bestT)) {
        best = k
        bestT = q.headArrival
      }
      k += 1
    }
    best
  }

  /** Messages waiting in all inboxes. */
  def queuedMessages: Long = inbox.iterator.map(_.size.toLong).sum

  /** Reset all volatile runtime structures (on failure). */
  def dropVolatile(): Unit = {
    inbox.foreach(_.clear())
    unblockAll()
    pendingCkpt = None
    busyUntil = 0L
  }

  /** Total serialized state, incl. a fixed metadata overhead per channel. */
  def stateBytes: Long =
    (if (spec.counted) logic.stateBytes else 0L) + 8L * (inCh.size + outCh.size) + 16L
}
