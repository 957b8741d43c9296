package repro.perfbench

import java.lang.management.ManagementFactory
import repro.checkpoint._
import repro.dataflow._
import scala.collection.mutable

/** Self-time accounting for the traced run.
  *
  * Every decorated call enters and exits a depth stack; on exit the call's
  * elapsed time minus the time of the decorated calls nested inside it is
  * charged to its slot. A snapshot taken inside a protocol timer is
  * therefore charged to `queries`, and the timer keeps only its own work.
  * Per-record hooks only bump counters; coarse calls also become spans.
  */
final class Tracer {
  import Tracer._

  val selfNanos = new Array[Long](Slots.length)
  val calls     = new Array[Long](Slots.length)
  var snapshotAllocBytes = 0L

  private val startAt = new Array[Long](256)
  private val childNanos = new Array[Long](256)
  private var depth = 0

  def enter(): Unit = {
    startAt(depth) = System.nanoTime()
    childNanos(depth) = 0L
    depth += 1
  }

  def exit(slot: Int): Unit = {
    val elapsed = System.nanoTime() - startAt(depth - 1)
    depth -= 1
    selfNanos(slot) += elapsed - childNanos(depth)
    calls(slot) += 1
    if (depth > 0) childNanos(depth - 1) += elapsed
  }

  def selfSeconds(slot: Int): Double = selfNanos(slot) / 1e9

  /** Self seconds of every decorated slot together. */
  def totalSelfSeconds: Double = selfNanos.sum / 1e9

  // ---------------------------------------------------------------- spans

  private val spanBuf = mutable.ArrayBuffer.empty[Span]
  private var openSpan = -1

  /** Run `body` as a coarse span named `name`, nested in the open span. */
  def span[A](name: String, cell: String)(body: => A): A = {
    val parent = openSpan
    val idx = spanBuf.length
    spanBuf += Span(name, cell, parent, System.nanoTime(), 0L)
    openSpan = idx
    try body
    finally {
      spanBuf(idx) = spanBuf(idx).copy(endNanos = System.nanoTime())
      openSpan = parent
    }
  }

  def spans: Seq[Span] = spanBuf.toSeq
}

object Tracer {
  val OnRecord    = 0
  val Snapshot    = 1
  val Restore     = 2
  val Piggyback   = 3
  val BeforeApply = 4
  val Marker      = 5
  val Timer       = 6
  val Plan        = 7
  /** init, onStart, onCheckpoint, onDurable, ckptExtraBytes, afterResume. */
  val OtherHook   = 8
  val Slots: IndexedSeq[String] = IndexedSeq("on_record", "snapshot", "restore",
    "piggyback", "before_apply", "marker", "timer", "plan", "other")

  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes
}

/** One coarse span: `parent` is the index of the enclosing span, or -1. */
final case class Span(name: String, cell: String, parent: Int, startNanos: Long, endNanos: Long)

object TracedLogic {
  /** `g` with every operator's logic factory wrapped in a [[TracedLogic]]. */
  def wrap(g: Graph, tr: Tracer, cell: String): Graph =
    g.copy(ops = g.ops.map(o => o.copy(logic = () => new TracedLogic(o.logic(), tr, cell))))
}

/** Times one operator instance's logic. Installed through the
  * [[OperatorSpec.logic]] factory, so `src/main` is not touched.
  */
final class TracedLogic(inner: OperatorLogic, tr: Tracer, cell: String) extends OperatorLogic {
  import Tracer._

  def onRecord(value: Any, fromOp: String, emit: Any => Unit): Unit = {
    tr.enter()
    try inner.onRecord(value, fromOp, emit) finally tr.exit(OnRecord)
  }

  def snapshot(): Any = tr.span("snapshot", cell) {
    val before = allocatedBytes()
    tr.enter()
    try inner.snapshot()
    finally {
      tr.exit(Snapshot)
      tr.snapshotAllocBytes += allocatedBytes() - before
    }
  }

  def restore(s: Any): Unit = {
    tr.enter()
    try inner.restore(s) finally tr.exit(Restore)
  }

  def stateBytes: Long = inner.stateBytes
}

/** Times every hook of a protocol and forwards it unchanged. The plan of
  * the last failure is kept for the recovery counters.
  */
final class TracedProtocol(val inner: Protocol, tr: Tracer, cell: String) extends Protocol {
  import Tracer._

  var lastPlan: Option[RecoveryPlan] = None

  def name: String = inner.name
  def features: ProtocolFeatures = inner.features
  def logsMessages: Boolean = inner.logsMessages
  def supportsCycles: Boolean = inner.supportsCycles

  def init(rt: ProtocolRuntime): Unit = {
    tr.enter(); try inner.init(rt) finally tr.exit(OtherHook)
  }
  def onStart(): Unit = {
    tr.enter(); try inner.onStart() finally tr.exit(OtherHook)
  }
  def onTimer(tag: String, inst: Option[InstanceId], payload: Long, now: Long): Unit = {
    tr.enter(); try inner.onTimer(tag, inst, payload, now) finally tr.exit(Timer)
  }
  def piggybackFor(sender: InstanceId, channel: ChannelId, now: Long): Option[repro.dataflow.Piggyback] = {
    tr.enter(); try inner.piggybackFor(sender, channel, now) finally tr.exit(Piggyback)
  }
  def beforeApply(inst: Instance, msg: Msg, now: Long): Boolean = {
    tr.enter(); try inner.beforeApply(inst, msg, now) finally tr.exit(BeforeApply)
  }
  def onMarker(inst: Instance, channel: ChannelId, round: Int, now: Long): Unit = {
    tr.enter(); try inner.onMarker(inst, channel, round, now) finally tr.exit(Marker)
  }
  def onCheckpoint(inst: Instance, meta: CkptMeta, now: Long): Unit = {
    tr.enter(); try inner.onCheckpoint(inst, meta, now) finally tr.exit(OtherHook)
  }
  def onDurable(meta: CkptMeta, now: Long): Unit = {
    tr.enter(); try inner.onDurable(meta, now) finally tr.exit(OtherHook)
  }
  override def ckptExtraBytes(inst: Instance): Long = {
    tr.enter(); try inner.ckptExtraBytes(inst) finally tr.exit(OtherHook)
  }
  def afterResume(now: Long): Unit = {
    tr.enter(); try inner.afterResume(now) finally tr.exit(OtherHook)
  }
  def plan(failTime: Long): RecoveryPlan = tr.span("plan", cell) {
    tr.enter()
    val p = try inner.plan(failTime) finally tr.exit(Plan)
    lastPlan = Some(p)
    p
  }
}
