package repro.queries

import scala.collection.mutable
import repro.dataflow.OperatorLogic

/** Sink digest used for correctness verification.
  *
  * Two modes cover all queries:
  *  - multiset: counts each distinct output value (Q1/Q3/Q8 — each record
  *    must appear exactly once per logical emission under exactly-once)
  *  - upsert-max: keeps the maximum `value` per `key` (Q12/Q8-style running
  *    emissions, where the last/greatest update per group is the answer and
  *    the result is order-independent)
  *
  * The digest is part of the sink's snapshot, so it rolls back with
  * recovery and reflects exactly-once *processing* (external duplicates,
  * which the paper explicitly permits, never reach it twice in the
  * surviving lineage).
  *
  * The multiset sink records every output value in an append-only buffer
  * and folds the counts only when they are read: sinks are not `counted`,
  * so no virtual time reads their state, and a record costs one array
  * store. A snapshot is an O(1) view of the first `n` records. Appends
  * write only past the live size, which never drops below `n` in the
  * buffer a view shares, and growth copies into a new array; `restore`
  * copies the view into a fresh buffer. So no view's records are ever
  * written again, and one view can be restored any number of times.
  */
final class MultisetSink extends OperatorLogic {
  import MultisetSink._
  private var buf = new Array[AnyRef](InitialCapacity)
  private var size = 0
  private def view = new Records(buf, size)
  /** Count per distinct output value. */
  def counts: Map[Any, Long] = view.counts
  /** Add the count of every recorded value to `into`. */
  def countInto(into: mutable.Map[Any, Long]): Unit = view.countInto(into)
  def onRecord(value: Any, fromOp: String, emit: Any => Unit): Unit = {
    if (size == buf.length) buf = java.util.Arrays.copyOf(buf, 2 * size)
    buf(size) = value.asInstanceOf[AnyRef]
    size += 1
  }
  def snapshot(): Any = view
  def restore(s: Any): Unit = {
    val r = s.asInstanceOf[Records]
    buf = java.util.Arrays.copyOf(r.buf, math.max(InitialCapacity, r.size))
    size = r.size
  }
  def stateBytes: Long = counts.size.toLong * 48L
}

object MultisetSink {
  private val InitialCapacity = 16

  /** A sink snapshot: the first `size` records of `buf`, which nothing
    * writes to any more. Two snapshots are equal when their digests are.
    */
  final class Records private[MultisetSink] (
      private[MultisetSink] val buf: Array[AnyRef], private[MultisetSink] val size: Int) {
    /** Add the count of every record to `into`. */
    def countInto(into: mutable.Map[Any, Long]): Unit = {
      var i = 0
      while (i < size) {
        into.updateWith(buf(i))(c => Some(c.getOrElse(0L) + 1L))
        i += 1
      }
    }
    /** Count per distinct record. */
    def counts: Map[Any, Long] = {
      val m = mutable.HashMap.empty[Any, Long]
      countInto(m)
      m.toMap
    }
    override def equals(o: Any): Boolean = o match {
      case r: Records => counts == r.counts
      case _          => false
    }
    override def hashCode: Int = counts.hashCode
  }
}

/** Upsert-max sink: `key`/`value` project a group and a monotone measure.
  *
  * The greatest measure per group lives in one copy-on-write table
  * ([[Epochs]]): a snapshot is O(1) and copies nothing, the first record
  * that raises a measure after a snapshot copies the table, and later ones
  * in the epoch write to the copy in place.
  */
final class UpsertMaxSink(key: Any => Any, value: Any => Long) extends OperatorLogic {
  private val epochs = new Epochs
  private var state = epochs.stamp(mutable.HashMap.empty[Any, Long])
  /** Greatest measure seen per group. */
  def latest: collection.Map[Any, Long] = state.table
  def onRecord(v: Any, fromOp: String, emit: Any => Unit): Unit = {
    val k = key(v); val x = value(v)
    if (state.table.getOrElse(k, Long.MinValue) < x) {
      state = epochs.writable(state)
      state.table.update(k, x)
    }
  }
  def snapshot(): Any = { epochs.next(); state }
  /** Adopt `s` and start a new epoch, so no write reaches `s` and it can
    * be restored again.
    */
  def restore(s: Any): Unit = {
    state = s.asInstanceOf[Stamped[mutable.HashMap[Any, Long]]]
    epochs.next()
  }
  def stateBytes: Long = state.table.size.toLong * 48L
}

/** Stateless pass-through (sources and simple stages). */
final class PassThrough extends OperatorLogic {
  def onRecord(value: Any, fromOp: String, emit: Any => Unit): Unit = emit(value)
  def snapshot(): Any = ()
  def restore(s: Any): Unit = ()
  def stateBytes: Long = 0L
}

/** Stateless filter+map stage. */
final class FilterMap(f: Any => Option[Any]) extends OperatorLogic {
  def onRecord(value: Any, fromOp: String, emit: Any => Unit): Unit =
    f(value).foreach(emit)
  def snapshot(): Any = ()
  def restore(s: Any): Unit = ()
  def stateBytes: Long = 0L
}
