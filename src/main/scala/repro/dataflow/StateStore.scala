package repro.dataflow

import repro.checkpoint.{CkptMeta, ForcedCkpt, InitialCkpt}
import scala.collection.Searching
import scala.collection.mutable

/** Durable checkpoint store (the Minio substitute).
  *
  * Uploads are asynchronous in the simulation: [[put]] registers the
  * checkpoint immediately but recovery filters on `durableAt`, so a
  * checkpoint whose upload had not finished by the failure instant simply
  * does not exist for recovery — the same semantics as an object store that
  * acks a PUT only on completion.
  *
  * Checkpoints of one instance are appended in strictly increasing `idx`
  * order (the runtime's per-instance counter). The store holds only what a
  * later recovery can still use: protocols collect checkpoints below the
  * recovery line ([[collectBelow]]) and recovery drops those past it
  * ([[dropAfter]]). What the tables count is tallied at [[put]], so
  * collection never changes a count.
  *
  * @param countFrom  start of the window whose checkpoints [[counted]] tallies
  * @param countUntil end of that window (both inclusive, on `takenAt`)
  */
final class StateStore(countFrom: Long = Long.MinValue, countUntil: Long = Long.MaxValue) {
  private val byInstance = mutable.Map.empty[InstanceId, mutable.ArrayBuffer[CkptMeta]]
  private var counted0 = 0L
  private var forced0 = 0L
  private var collected0 = 0L

  def put(meta: CkptMeta): Unit = {
    val buf = byInstance.getOrElseUpdate(meta.id, mutable.ArrayBuffer.empty)
    require(buf.isEmpty || buf.last.idx < meta.idx,
      s"checkpoints of ${meta.id} must arrive in idx order")
    buf += meta
    if (meta.counted && meta.kind != InitialCkpt &&
        meta.takenAt >= countFrom && meta.takenAt <= countUntil) {
      counted0 += 1
      if (meta.kind == ForcedCkpt) forced0 += 1
    }
  }

  /** Counted (source/stateful, non-initial) checkpoints ever put, taken in
    * the window — Table III/IV's total.
    */
  def counted: Long = counted0
  /** The forced (CIC) ones among [[counted]]. */
  def forcedCounted: Long = forced0
  /** Checkpoints dropped by [[collectBelow]] (all durable when dropped):
    * recovery-line pricing still charges them as graph nodes.
    */
  def collectedDurable: Long = collected0

  /** Held checkpoints of `id` durable at or before `asOf`, oldest first. */
  def durable(id: InstanceId, asOf: Long): IndexedSeq[CkptMeta] =
    byInstance.get(id).map(_.filter(_.durableAt <= asOf).toIndexedSeq)
      .getOrElse(IndexedSeq.empty)

  /** Checkpoint `idx` of instance `id`, if held (binary search on idx). */
  def byIdx(id: InstanceId, idx: Int): Option[CkptMeta] = byInstance.get(id).flatMap { buf =>
    buf.view.map(_.idx).search(idx) match {
      case Searching.Found(i) => Some(buf(i))
      case _                  => None
    }
  }

  /** Every held checkpoint of `id` (oldest first). */
  def all(id: InstanceId): IndexedSeq[CkptMeta] =
    byInstance.get(id).map(_.toIndexedSeq).getOrElse(IndexedSeq.empty)

  def allMetas: IndexedSeq[CkptMeta] =
    byInstance.valuesIterator.flatten.toIndexedSeq

  /** Drop the checkpoints of `id` older than checkpoint `idx` whose upload
    * completed before `now` (so no pending upload event refers to them).
    */
  def collectBelow(id: InstanceId, idx: Int, now: Long): Unit =
    byInstance.get(id).foreach { buf =>
      val before = buf.length
      buf.filterInPlace(m => m.idx >= idx || m.durableAt >= now)
      collected0 += before - buf.length
    }

  /** Drop the checkpoints of `id` newer than checkpoint `idx`: after a
    * recovery to `idx` they describe a rolled-back execution.
    */
  def dropAfter(id: InstanceId, idx: Int): Unit =
    byInstance.get(id).foreach { buf =>
      buf.dropRightInPlace(buf.length - 1 - buf.lastIndexWhere(_.idx <= idx))
    }
}
