package repro.perfbench

import repro.core.Mst
import repro.dataflow.{Graph, Runtime, SourceInput}
import repro.nexmark.NexmarkConfig
import repro.queries.QueryDef
import scala.collection.mutable

/** A query under another name. `Mst.find` memoizes its result per query
  * name, so a fresh name per repetition makes every repetition search again,
  * in a JVM whose JIT is already warm. It also times the input generation
  * and graph builds that the search does inside, and with a tracer wraps
  * the operator logic of every probe.
  */
final class Renamed(q: QueryDef, val name: String, tr: Option[Tracer]) extends QueryDef {
  var genNanos = 0L
  var buildNanos = 0L

  def graph(parallelism: Int): Graph = {
    val t0 = System.nanoTime()
    val g = q.graph(parallelism)
    try tr.fold(g)(TracedLogic.wrap(g, _, name)) finally buildNanos += System.nanoTime() - t0
  }
  def input(parallelism: Int, cfg: NexmarkConfig): SourceInput = {
    val t0 = System.nanoTime()
    try q.input(parallelism, cfg) finally genNanos += System.nanoTime() - t0
  }
  def includes: Set[String] = q.includes
  def sinkDigest(rt: Runtime): Map[Any, Long] = q.sinkDigest(rt)
}

/** Runs `mst-w10`: every pass is one repetition of `Mst.find` for each
  * query. `prepare` runs one more, untimed: it warms the JIT, so that no
  * pass measures a cold one, and its rates, which `Mst.stable` must accept,
  * are the reference that every pass must find again. `Mst.find` builds its
  * runtimes itself, so a traced pass decorates the operator logic only;
  * protocol hooks and `Experiment.freeze` stay in `dataflow.self_s`.
  */
final class MstRunner extends Runner {
  import MstRunner._
  import MstWorkload._

  private val rates = mutable.LinkedHashMap.empty[String, Double]
  private val failures = mutable.Map.empty[String, String]
  private val spanBuf = mutable.ArrayBuffer.empty[(Int, Span)]
  def spans: Seq[(Int, Span)] = spanBuf.toSeq

  def prepare(): Unit = queries.foreach { q =>
    val rate = Mst.find(new Renamed(q, s"${q.name}#reference", None), protocol, workers)
    rates(cellLabel(q)) = rate
    if (!Mst.stable(q, protocol, workers, rate, 0.0))
      fail(cellLabel(q), s"Mst.stable rejects the rate found, $rate ev/s")
  }

  def pass(traced: Boolean, passIdx: Int): Pass = {
    val tr = new Tracer
    val cpu0 = CellRunner.processCpuNanos(); val alloc0 = Tracer.allocatedBytes()
    val (gcNs0, gcN0) = CellRunner.gcTotals()
    val timed = queries.map { q =>
      val fresh = new Renamed(q, s"${q.name}#${if (traced) "traced-" else ""}$passIdx",
        if (traced) Some(tr) else None)
      val t = System.nanoTime()
      val rate = tr.span("mst", q.name)(Mst.find(fresh, protocol, workers))
      (q, fresh, rate, (System.nanoTime() - t) / 1e9)
    }
    val cpu1 = CellRunner.processCpuNanos(); val alloc1 = Tracer.allocatedBytes()
    val (gcNs1, gcN1) = CellRunner.gcTotals()
    val retained = CellRunner.retainedHeapBytes()

    timed.foreach { case (q, _, rate, _) =>
      val ref = rates(cellLabel(q))
      if (rate != ref) fail(cellLabel(q), s"found $rate ev/s, the reference $ref")
    }
    val events = timed.map { case (q, _, rate, _) =>
      try probedRates(q, workers, rate).map(probeEvents).sum
      catch { case e: IllegalArgumentException => fail(cellLabel(q), e.getMessage); 0L }
    }.sum
    val runS = timed.map(_._4).sum
    val genS = timed.map(_._2.genNanos).sum / 1e9
    val buildS = timed.map(_._2.buildNanos).sum / 1e9
    val traceMetrics =
      if (!traced) Nil
      else {
        spanBuf ++= tr.spans.map(passIdx -> _)
        CellRunner.slotMetrics(tr) ++ Seq(
          "nexmark.events" -> events.toDouble,
          "tracing.run_s" -> runS,
          "dataflow.self_s" -> (runS - tr.totalSelfSeconds - genS - buildS))
      }
    Pass(Map(
      // Set-up happens inside Mst.find: every probe generates its input and
      // builds its graph.
      "setup_s" -> (genS + buildS),
      "nexmark.gen_s" -> genS,
      "dataflow.build_s" -> buildS,
      "run_s" -> runS,
      "events" -> events.toDouble,
      "cpu_s" -> (cpu1 - cpu0) / 1e9,
      "alloc_mb" -> (alloc1 - alloc0) / 1e6,
      "retained_heap_mb" -> retained / 1e6,
      "jvm.gc_s" -> (gcNs1 - gcNs0) / 1e9,
      "jvm.gc_count" -> (gcN1 - gcN0).toDouble,
      "core.mst_s" -> runS,
    ) ++ timed.flatMap { case (q, _, rate, s) =>
      val k = q.name.toLowerCase
      Seq(s"core.mst_s.$k" -> s, s"core.mst_rate.$k" -> rate)
    } ++ traceMetrics)
  }

  private def cellLabel(q: QueryDef) = s"${q.name}/$protocol"

  private def fail(label: String, why: String): Unit =
    if (!failures.contains(label)) failures(label) = why

  def finish(): Seq[CellOutcome] = rates.toSeq.map { case (label, rate) =>
    CellOutcome(label, Fingerprint.ofRate(rate), "", failures.get(label))
  }
}

object MstRunner {

  /** Input length of one probe run: `Mst` probes 2 s of warm-up plus 8 s,
    * with input stopping 1.5 s before the end.
    */
  private val ProbeInputMicros = 8_500_000L

  /** The rates `Mst.find` probed to end at `found`, replayed from its
    * bisection: a probe at `r` passed exactly when `r <= found`.
    */
  def probedRates(q: QueryDef, workers: Int, found: Double): Seq[Double] = {
    val cap = Mst.analyticCap(q, workers) * 1.3
    var lo = cap / 40.0
    var hi = cap
    val probes = Seq.newBuilder[Double]
    probes += lo
    if (found < lo) lo = cap / 200.0
    for (_ <- 0 until 6) {
      val mid = (lo + hi) / 2.0
      probes += mid
      if (mid <= found) lo = mid else hi = mid
    }
    require(lo == found, s"${q.name}: the bisection replay ends at $lo, not at $found")
    probes.result()
  }

  /** Source events a probe at `rate` is fed. */
  def probeEvents(rate: Double): Long = math.max(1L, (rate * ProbeInputMicros / 1e6).toLong)
}
