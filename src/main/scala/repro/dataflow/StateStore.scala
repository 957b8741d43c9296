package repro.dataflow

import repro.checkpoint.CkptMeta
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
  * ([[dropAfter]]). What the tables count is tallied in the run's
  * metrics when the checkpoint is taken, so collection never changes a
  * count.
  */
final class StateStore {
  private val byInstance = mutable.Map.empty[InstanceId, mutable.ArrayBuffer[CkptMeta]]
  private var collected0 = 0L

  def put(meta: CkptMeta): Unit = {
    val buf = byInstance.getOrElseUpdate(meta.id, mutable.ArrayBuffer.empty)
    require(buf.isEmpty || buf.last.idx < meta.idx,
      s"checkpoints of ${meta.id} must arrive in idx order")
    buf += meta
  }

  /** Checkpoints dropped by [[collectBelow]] (all durable when dropped):
    * recovery-line pricing still charges them as graph nodes.
    */
  def collectedDurable: Long = collected0

  /** Held checkpoints of `id` durable at or before `asOf`, oldest first. */
  def durable(id: InstanceId, asOf: Long): IndexedSeq[CkptMeta] =
    byInstance.get(id).map(_.filter(_.durableAt <= asOf).toIndexedSeq)
      .getOrElse(IndexedSeq.empty)

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
