package repro.queries

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
  */
final class MultisetSink extends OperatorLogic {
  private var state = Map.empty[Any, Long]
  /** Count per distinct output value. */
  def counts: Map[Any, Long] = state
  def onRecord(value: Any, fromOp: String, emit: Any => Unit): Unit =
    state = state.updated(value, state.getOrElse(value, 0L) + 1L)
  def snapshot(): Any = state
  def restore(s: Any): Unit = state = s.asInstanceOf[Map[Any, Long]]
  def stateBytes: Long = state.size.toLong * 48L
}

/** Upsert-max sink: `key`/`value` project a group and a monotone measure. */
final class UpsertMaxSink(key: Any => Any, value: Any => Long) extends OperatorLogic {
  private var state = Map.empty[Any, Long]
  /** Greatest measure seen per group. */
  def latest: Map[Any, Long] = state
  def onRecord(v: Any, fromOp: String, emit: Any => Unit): Unit = {
    val k = key(v); val x = value(v)
    if (state.getOrElse(k, Long.MinValue) < x) state = state.updated(k, x)
  }
  def snapshot(): Any = state
  def restore(s: Any): Unit = state = s.asInstanceOf[Map[Any, Long]]
  def stateBytes: Long = state.size.toLong * 48L
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
