package repro.dataflow

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
/** A checkpoint upload reaches durable storage. */
final case class UploadDone(id: InstanceId, ckptIdx: Int)  extends SimAction
/** Inject the configured global failure. */
case object InjectFailure                                  extends SimAction
/** Recovery finished; restore state and resume processing. */
case object Resume                                         extends SimAction

/** Deterministic virtual-time event queue: events pop in (time, insertion
  * order) — ties never depend on hash order, so runs are bit-reproducible.
  *
  * A binary min-heap over parallel arrays: the key is the primitive pair
  * (time, tick), where `tick` numbers schedules in insertion order. Keys
  * are unique, so the pop order is fully determined by them. Neither
  * scheduling nor [[popAction]] allocates (beyond growing the arrays).
  */
final class EventQueue {
  private var times   = new Array[Long](EventQueue.InitialCapacity)
  private var ticks   = new Array[Long](EventQueue.InitialCapacity)
  private var actions = new Array[SimAction](EventQueue.InitialCapacity)
  private var n = 0
  private var lastTick = 0L

  def schedule(time: Long, action: SimAction): Unit = {
    if (n == times.length) grow()
    lastTick += 1
    // Sift up. The new tick is the largest, so only strictly later parents
    // move below it.
    var i = n
    n += 1
    var parent = (i - 1) >>> 1
    while (i > 0 && times(parent) > time) {
      place(i, times(parent), ticks(parent), actions(parent))
      i = parent
      parent = (i - 1) >>> 1
    }
    place(i, time, lastTick, action)
  }

  def nonEmpty: Boolean = n > 0
  def isEmpty: Boolean  = n == 0
  def size: Int         = n

  /** Time of the earliest event. */
  def peekTime: Long = {
    if (n == 0) throw new NoSuchElementException("empty event queue")
    times(0)
  }

  /** Remove the earliest event and return its action; its time is what
    * [[peekTime]] returned before the call.
    */
  def popAction(): SimAction = {
    if (n == 0) throw new NoSuchElementException("empty event queue")
    val top = actions(0)
    n -= 1
    if (n > 0) siftDown(times(n), ticks(n), actions(n))
    actions(n) = null
    top
  }

  def pop(): (Long, SimAction) = {
    val t = peekTime
    (t, popAction())
  }

  /** Drop every pending event (used at failure: in-flight messages are lost). */
  def clear(): Unit = {
    java.util.Arrays.fill(actions.asInstanceOf[Array[AnyRef]], 0, n, null)
    n = 0
  }

  /** Move the entry (t, k, a) down from the root to its place. */
  private def siftDown(t: Long, k: Long, a: SimAction): Unit = {
    var i = 0
    var child = 1
    while (child < n) {
      val right = child + 1
      if (right < n && before(times(right), ticks(right), times(child), ticks(child)))
        child = right
      if (before(times(child), ticks(child), t, k)) {
        place(i, times(child), ticks(child), actions(child))
        i = child
        child = 2 * i + 1
      } else child = n
    }
    place(i, t, k, a)
  }

  private def before(t1: Long, k1: Long, t2: Long, k2: Long): Boolean =
    t1 < t2 || (t1 == t2 && k1 < k2)

  private def place(i: Int, t: Long, k: Long, a: SimAction): Unit = {
    times(i) = t; ticks(i) = k; actions(i) = a
  }

  private def grow(): Unit = {
    val cap = 2 * times.length
    times = java.util.Arrays.copyOf(times, cap)
    ticks = java.util.Arrays.copyOf(ticks, cap)
    val grown = new Array[SimAction](cap)
    System.arraycopy(actions, 0, grown, 0, n)
    actions = grown
  }
}

object EventQueue {
  /** Slots allocated up front; the arrays double when full. */
  val InitialCapacity: Int = 256
}
