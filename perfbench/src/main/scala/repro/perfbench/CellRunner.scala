package repro.perfbench

import java.lang.management.ManagementFactory
import repro.checkpoint._
import repro.core.{ExpResult, Experiment}
import repro.dataflow._
import repro.nexmark.NexmarkConfig
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** What one pass over a workload's cells measured, by metric name. */
final case class Pass(metrics: Map[String, Double])

/** Verdict and output hashes of one cell, over all of its passes. */
final case class CellOutcome(label: String, fingerprint: String, digest: String,
    failure: Option[String])

/** How `Main` drives a workload: `prepare` once, outside any timing, then
  * passes until the time budget is spent, then `finish` for the verdicts.
  */
trait Runner {
  def prepare(): Unit
  def pass(traced: Boolean, passIdx: Int): Pass
  def finish(): Seq[CellOutcome]
  def spans: Seq[(Int, Span)]
}

/** Runs a [[CellWorkload]]: a failure-free reference per cell first, then
  * passes over all cells until the time budget is spent. Each pass sets up
  * every cell (input generation, graph build, `Runtime` construction), runs
  * it, freezes its result and checks it. A traced pass repeats the untraced
  * one with decorated operator logic and protocol.
  */
final class CellRunner(workload: CellWorkload, seed: Long, corruptDigest: Boolean = false)
    extends Runner {
  import CellRunner._

  val cells: Seq[Cell] = workload.cells(seed)
  private val fingerprints = mutable.Map.empty[String, String]
  private val failures = mutable.LinkedHashMap.empty[String, String]
  private val refDigests = mutable.Map.empty[String, String]
  private val spanBuf = mutable.ArrayBuffer.empty[(Int, Span)]
  def spans: Seq[(Int, Span)] = spanBuf.toSeq

  private def fail(label: String, why: String): Unit =
    if (!failures.contains(label)) failures(label) = why

  /** Digest of the failure-free run of every cell, outside any timing. */
  def prepare(): Unit = cells.foreach { c =>
    val exp = c.exp.copy(sim = c.exp.sim.copy(failAtMicros = None))
    val (rt, res) = Experiment.run(exp)
    val d = Fingerprint.ofDigest(c.exp.query.sinkDigest(rt))
    refDigests(c.label) = if (corruptDigest) "corrupted:" + d else d
    val inFlight = undelivered(rt)
    if (res.unconsumed != 0 || res.eoViolations != 0 || inFlight != 0)
      fail(c.label, s"failure-free reference did not drain: unconsumed=${res.unconsumed} " +
        s"violations=${res.eoViolations} in flight=$inFlight")
  }

  /** Set up, run and check every cell once; traced passes use decorators. */
  def pass(traced: Boolean, passIdx: Int): Pass = {
    val tr = new Tracer
    val m = mutable.LinkedHashMap.empty[String, Double].withDefaultValue(0.0)
    def add(k: String, v: Double): Unit = m(k) = m(k) + v
    // A full collection with the Runtime still reachable costs more than a
    // tenth of a pass and repeats within 1 %, so only the first pass makes it.
    val measureHeap = passIdx == 0 && !traced
    var retained = 0L
    def runCell(c: Cell): Unit = {
      val exp = c.exp
      val t0 = System.nanoTime()
      val input = tr.span("gen", c.label) {
        exp.query.input(exp.parallelism, NexmarkConfig(exp.ratePerSec,
          exp.inputHorizonMicros.getOrElse(exp.sim.endMicros), hotRatio = exp.hotRatio,
          seed = exp.seed, include = exp.query.includes))
      }
      val t1 = System.nanoTime()
      val protocol = Experiment.protocolFor(exp.protocolName)
      val tracedProtocol = if (traced) Some(new TracedProtocol(protocol, tr, c.label)) else None
      val rt = tr.span("build", c.label) {
        val g = exp.query.graph(exp.parallelism)
        val graph = if (traced) TracedLogic.wrap(g, tr, c.label) else g
        new Runtime(graph, tracedProtocol.getOrElse(protocol), exp.sim, input)
      }
      val t2 = System.nanoTime()
      val cpu0 = processCpuNanos(); val alloc0 = Tracer.allocatedBytes()
      val (gcNs0, gcN0) = gcTotals()
      tr.span("run", c.label)(rt.run())
      val t3 = System.nanoTime()
      // Freeze sees the undecorated protocol: it pattern-matches on its class.
      val res = tr.span("freeze", c.label)(Experiment.freeze(exp, rt, protocol))
      val t4 = System.nanoTime()
      val cpu1 = processCpuNanos(); val alloc1 = Tracer.allocatedBytes()
      val (gcNs1, gcN1) = gcTotals()

      add("setup_s", (t2 - t0) / 1e9)
      add("nexmark.gen_s", (t1 - t0) / 1e9)
      add("dataflow.build_s", (t2 - t1) / 1e9)
      add("run_s", (t4 - t2) / 1e9)
      add(s"run_s.${c.label}", (t4 - t2) / 1e9)
      add("events", (input.totalEvents - rt.unconsumedSourceEvents).toDouble)
      add("cpu_s", (cpu1 - cpu0) / 1e9)
      add("alloc_mb", (alloc1 - alloc0) / 1e6)
      add("jvm.gc_s", (gcNs1 - gcNs0) / 1e9)
      add("jvm.gc_count", (gcN1 - gcN0).toDouble)
      add("nexmark.events", input.totalEvents.toDouble)
      if (traced) {
        add("metrics.freeze_s", (t4 - t3) / 1e9)
        layerCounters(rt, tracedProtocol.get).foreach { case (k, v) =>
          if (k == "dataflow.max_inbox") m(k) = math.max(m(k), v) else add(k, v)
        }
      }
      check(c, rt, res, traced)
      if (measureHeap) retained = math.max(retained, retainedHeapBytes())
      val inFlight = undelivered(rt)
      if (inFlight != 0) fail(c.label, s"$inFlight messages still in flight at the end of the run")
    }
    for (c <- cells) {
      // Every cell starts from a collected heap, outside the timing, instead
      // of paying for the garbage of the cell before it.
      System.gc()
      tr.span("cell", c.label)(runCell(c))
    }
    if (measureHeap) m("retained_heap_mb") = retained / 1e6
    if (traced) {
      // Everything in the timed region that no decorated call or freeze
      // covers is the runtime's own work.
      m ++= slotMetrics(tr)
      m("tracing.run_s") = m("run_s")
      m("dataflow.self_s") = m("run_s") - tr.totalSelfSeconds - m("metrics.freeze_s")
      spanBuf ++= tr.spans.map(passIdx -> _)
    }
    Pass(m.toMap)
  }

  private def check(c: Cell, rt: Runtime, res: ExpResult, traced: Boolean): Unit = {
    if (res.eoViolations != 0) fail(c.label, s"${res.eoViolations} ledger violations")
    if (res.unconsumed != 0) fail(c.label, s"${res.unconsumed} source events unconsumed")
    // The sink digest casts the sink logic to its concrete class, which the
    // traced run has wrapped; the traced run is held to the fingerprint.
    if (!traced) {
      val d = Fingerprint.ofDigest(c.exp.query.sinkDigest(rt))
      if (!refDigests.get(c.label).contains(d))
        fail(c.label, s"sink digest $d differs from the failure-free ${refDigests.get(c.label)}")
    }
    val fp = Fingerprint.of(res)
    fingerprints.get(c.label) match {
      case None => fingerprints(c.label) = fp
      case Some(prev) if prev != fp =>
        fail(c.label, s"fingerprint $fp differs from an earlier pass's $prev" +
          (if (traced) " (traced)" else ""))
      case _ => ()
    }
  }

  def finish(): Seq[CellOutcome] = cells.map(c =>
    CellOutcome(c.label, fingerprints.getOrElse(c.label, ""),
      refDigests.getOrElse(c.label, ""), failures.get(c.label)))
}

object CellRunner {
  private val os =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  def processCpuNanos(): Long = os.getProcessCpuTime

  /** Collection time (ns) and count, summed over collectors. */
  def gcTotals(): (Long, Long) =
    (gcs.map(_.getCollectionTime).sum * 1_000_000L, gcs.map(_.getCollectionCount).sum)

  /** Messages queued or in flight when the run stopped. Pops the event
    * queue, so call it last.
    */
  def undelivered(rt: Runtime): Long = {
    var n = rt.queuedMessagesAtEnd
    while (rt.queue.nonEmpty) rt.queue.pop()._2 match {
      case _: Deliver => n += 1
      case _          => ()
    }
    n
  }

  /** Heap in use after a full collection. */
  def retainedHeapBytes(): Long = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  /** Self time of every decorated slot, and the logic call counts. */
  def slotMetrics(tr: Tracer): Seq[(String, Double)] =
    Tracer.Slots.indices.map { i =>
      val layer = if (i <= Tracer.Restore) "queries" else "checkpoint"
      s"$layer.${Tracer.Slots(i)}_s" -> tr.selfSeconds(i)
    } ++ Seq(
      "queries.on_record_calls" -> tr.calls(Tracer.OnRecord).toDouble,
      "queries.snapshot_calls" -> tr.calls(Tracer.Snapshot).toDouble,
      "queries.snapshot_alloc_mb" -> tr.snapshotAllocBytes / 1e6)

  /** Counters of one finished traced cell, read outside the timed region. */
  def layerCounters(rt: Runtime, proto: TracedProtocol): Seq[(String, Double)] = {
    val m = rt.metrics
    val metas = rt.store.allMetas.filter(_.kind != InitialCkpt)
    val (planNodes, rolledBack) = (m.failureAt, proto.lastPlan) match {
      case (Some(f), Some(plan)) =>
        val durable = rt.graph.instances.map(id => id -> rt.store.durable(id, f))
        (durable.map(_._2.size).sum,
          durable.map { case (id, ds) => ds.count(_.idx > plan.line(id).idx) }.sum)
      case _ => (0, 0)
    }
    Seq(
      "dataflow.data_messages" -> m.dataMessages.toDouble,
      "dataflow.max_inbox" -> m.maxQueuedMessages.toDouble,
      "dataflow.dedup_dropped" -> m.dedupDropped.toDouble,
      "queries.state_mb" -> rt.allInstances.map(_.logic.stateBytes).sum / 1e6,
      "checkpoint.plan_nodes" -> planNodes.toDouble,
      "checkpoint.checkpoints" -> metas.size.toDouble,
      "checkpoint.forced" -> metas.count(_.kind == ForcedCkpt).toDouble,
      "checkpoint.rolled_back" -> rolledBack.toDouble,
      "checkpoint.replayed_messages" -> m.replayedMessages.toDouble,
      "checkpoint.log_messages" -> rt.log.totalMessages.toDouble,
      "checkpoint.log_mb" -> rt.log.totalBytes / 1e6,
      "metrics.latency_samples" -> m.latencies.size.toDouble,
    )
  }
}
