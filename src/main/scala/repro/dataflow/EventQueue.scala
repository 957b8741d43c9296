package repro.dataflow

import repro.checkpoint.{CkptMeta, RecoveryPlan}

/** Actions processed by the discrete-event engine. */
sealed trait SimAction
/** A message arrives at the receiving end of `msg.channel`: instance `to`
  * (its dense index in [[Graph.wiring]]), as its input channel `inIdx`.
  */
final case class Deliver(msg: Msg, to: Int, inIdx: Int)   extends SimAction
/** Re-examine the inboxes / source input of instance `index` (its dense
  * index in [[Graph.wiring]]) for runnable work.
  */
final case class Wake(index: Int)                          extends SimAction
/** A protocol timer/control event fires (UNC/CIC local checkpoint timers,
  * COOR round starts and per-source triggers). `inst` is the target
  * instance for per-instance events, None for coordinator-level ones.
  */
final case class ProtocolTimer(tag: String, inst: Option[InstanceId], payload: Long)
    extends SimAction
/** The upload of checkpoint `meta` reaches durable storage. */
final case class UploadDone(meta: CkptMeta)                extends SimAction
/** Inject the configured global failure. */
case object InjectFailure                                  extends SimAction
/** Recovery finished; restore `plan`'s line and resume processing. */
final case class Resume(plan: RecoveryPlan)                extends SimAction

/** Deterministic virtual-time event queue: events pop in (time, insertion
  * order) — ties never depend on hash order, so runs are bit-reproducible.
  *
  * A timing wheel (Varghese & Lauck, SOSP 1987) of 1 µs slots covers the
  * window [base, base + [[EventQueue.WheelMicros]]), where `base` is the
  * latest time popped. Almost every event the simulator schedules lands a
  * few milliseconds ahead, so it enters and leaves the wheel in O(1). An
  * event outside the window waits in an overflow `PriorityQueue` ordered on
  * (time, tick), where the tick numbers the queue's schedules in insertion
  * order. Each slot is a FIFO linked through primitive arrays with a free
  * list, and a bitmap of occupied slots finds the next one with
  * `numberOfTrailingZeros`. Scheduling into the wheel and popping from it
  * allocate nothing (beyond growing arrays); an overflow schedule
  * allocates its queue entry.
  *
  * Why the pop order is exactly (time, insertion order):
  *  - the window spans one turn of the wheel, so a slot holds one time,
  *    and its FIFO is in insertion order;
  *  - an overflow event at time t was scheduled while t lay beyond the
  *    window. The window only moves forward, so that event precedes every
  *    wheel event at t: on equal times the overflow top pops first;
  *  - an event scheduled below `base` also goes to overflow. Every wheel
  *    event is at or after `base`, so none shares its time.
  */
final class EventQueue {
  import EventQueue._

  private val overflow = new java.util.PriorityQueue[Far](EarlierFirst)
  /** First and last node of each slot's FIFO; `first` is -1 when empty. */
  private val first    = Array.fill(WheelMicros)(-1)
  private val last     = new Array[Int](WheelMicros)
  /** One bit per slot, set while the slot is non-empty. */
  private val occupied = new Array[Long](WheelMicros >>> 6)
  /** Node pool: the action, and the next node of its slot (or of the free list). */
  private var actions = new Array[SimAction](InitialCapacity)
  private var next    = new Array[Int](InitialCapacity)
  private var free = -1
  private var used = 0
  private var inWheel = 0
  private var base = 0L
  /** Time of the earliest wheel event, or -1 until the next scan. */
  private var nextTime = -1L
  private var scheduledCount = 0L
  private var overflowedCount = 0L

  def schedule(time: Long, action: SimAction): Unit = {
    scheduledCount += 1
    if (time >= base && time - base < WheelMicros) {
      val node = alloc(action)
      val s = (time & SlotMask).toInt
      if (first(s) < 0) {
        first(s) = node
        occupied(s >>> 6) |= 1L << s
      } else next(last(s)) = node
      last(s) = node
      if (inWheel == 0 || time < nextTime) nextTime = time
      inWheel += 1
    } else {
      overflowedCount += 1
      overflow.add(new Far(time, scheduledCount, action))
    }
  }

  def nonEmpty: Boolean = size > 0
  def isEmpty: Boolean  = size == 0
  def size: Int         = inWheel + overflow.size

  /** Events scheduled so far, and how many of them went to the overflow queue. */
  def scheduled: Long  = scheduledCount
  def overflowed: Long = overflowedCount

  /** Time of the earliest event; throws `NoSuchElementException` if there is none. */
  def peekTime: Long =
    if (inWheel == 0) overflow.element().time
    else if (!overflow.isEmpty) math.min(wheelNext(), overflow.peek().time)
    else wheelNext()

  /** Remove the earliest event and return its action; its time is what
    * [[peekTime]] returned before the call.
    */
  def popAction(): SimAction =
    if (inWheel == 0 || (!overflow.isEmpty && overflow.peek().time <= wheelNext())) {
      val far = overflow.remove()
      base = math.max(base, far.time)
      far.action
    } else {
      val t = wheelNext()
      base = t
      val s = (t & SlotMask).toInt
      val node = first(s)
      val action = actions(node)
      val succ = next(node)
      first(s) = succ
      if (succ < 0) {
        occupied(s >>> 6) &= ~(1L << s)
        nextTime = -1L
      }
      actions(node) = null
      next(node) = free
      free = node
      inWheel -= 1
      action
    }

  def pop(): (Long, SimAction) = {
    val t = peekTime
    (t, popAction())
  }

  /** Drop every pending event (used at failure: in-flight messages are lost). */
  def clear(): Unit = {
    overflow.clear()
    java.util.Arrays.fill(actions.asInstanceOf[Array[AnyRef]], 0, used, null)
    java.util.Arrays.fill(first, -1)
    java.util.Arrays.fill(occupied, 0L)
    free = -1
    used = 0
    inWheel = 0
    nextTime = -1L
  }

  /** The earliest wheel time (the wheel must be non-empty): cached between
    * [[peekTime]] and [[popAction]], else the first occupied slot from
    * `base` on, around the wheel.
    */
  private def wheelNext(): Long = {
    if (nextTime < 0) {
      val s0 = (base & SlotMask).toInt
      var w = s0 >>> 6
      var bits = occupied(w) & (-1L << s0)
      while (bits == 0) {
        w = (w + 1) & (occupied.length - 1)
        bits = occupied(w)
      }
      val s = (w << 6) | java.lang.Long.numberOfTrailingZeros(bits)
      nextTime = base + ((s - s0) & SlotMask)
    }
    nextTime
  }

  private def alloc(action: SimAction): Int = {
    val node =
      if (free >= 0) { val f = free; free = next(f); f }
      else {
        if (used == actions.length) {
          actions = java.util.Arrays.copyOf(actions, 2 * used)
          next = java.util.Arrays.copyOf(next, 2 * used)
        }
        used += 1
        used - 1
      }
    actions(node) = action
    next(node) = -1
    node
  }
}

object EventQueue {
  /** Wheel nodes allocated up front; the node arrays double when full. */
  val InitialCapacity: Int = 256
  /** Width of the timing wheel's window, in µs (one slot per µs). A power
    * of two; a 2^15 wheel was no faster and retained more heap.
    */
  val WheelMicros: Int = 8192
  private val SlotMask: Long = WheelMicros - 1L

  /** An event outside the wheel's window, and its schedule's number. */
  private final class Far(val time: Long, val tick: Long, val action: SimAction)

  private val EarlierFirst: java.util.Comparator[Far] = (a, b) =>
    if (a.time != b.time) java.lang.Long.compare(a.time, b.time)
    else java.lang.Long.compare(a.tick, b.tick)
}
