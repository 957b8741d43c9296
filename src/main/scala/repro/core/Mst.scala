package repro.core

import repro.dataflow.SimConfig
import repro.queries.QueryDef

/** Maximum-sustainable-throughput estimation (paper §V / Fig. 7).
  *
  * The paper runs every experiment at 80 % of the MST that each protocol
  * achieves for each query and parallelism; we do the same. MST is found by
  * probing short failure-free runs with a bisection over the input rate; a
  * rate is *sustainable* when the sources never fall behind their arrival
  * schedule and no inbox builds a standing backlog (the paper's
  * "no backpressure, average throughput >= input rate" criterion).
  */
object Mst {
  /** Probe-run length (virtual). Short runs keep the search cheap; the
    * sustainability verdict stabilizes well before 10 s at these rates.
    */
  private val ProbeWarmup = 2_000_000L
  private val ProbeRun    = 8_000_000L

  /** Upper bound from the analytic bottleneck: every record visits each
    * operator once; the slowest non-sink operator caps per-instance rate.
    */
  def analyticCap(q: QueryDef, parallelism: Int): Double = {
    val g = q.graph(parallelism)
    val maxSvc = g.ops.filterNot(_.isSink).map(_.serviceMicros).max
    parallelism * 1e6 / maxSvc
  }

  def stable(q: QueryDef, proto: String, parallelism: Int, rate: Double,
      hotRatio: Double): Boolean = {
    val sim = SimConfig(warmupMicros = ProbeWarmup, runMicros = ProbeRun, failAtMicros = None)
    val cfg = ExpConfig(q, proto, parallelism, rate, hotRatio, sim,
      // Leave the tail of the run for the sources to drain.
      inputHorizonMicros = Some(ProbeWarmup + ProbeRun - 1_500_000L))
    // The verdict needs three readings, not a frozen result.
    val rt = Experiment.runtime(cfg, Experiment.protocolFor(proto))
    rt.unconsumedSourceEvents == 0 && rt.metrics.maxQueuedMessages < 500 &&
      rt.queuedMessagesAtEnd < 50L * parallelism
  }

  /** Bisect the sustainable rate of the uniform workload; returns
    * events/s. Every call searches: callers that need a rate more than once
    * keep it.
    */
  def find(q: QueryDef, proto: String, parallelism: Int): Double = {
    val cap = analyticCap(q, parallelism) * 1.3
    var lo = cap / 40.0
    var hi = cap
    if (!stable(q, proto, parallelism, lo, 0.0)) lo = cap / 200.0
    var it = 0
    while (it < 6) {
      val mid = (lo + hi) / 2.0
      if (stable(q, proto, parallelism, mid, 0.0)) lo = mid else hi = mid
      it += 1
    }
    lo
  }
}
