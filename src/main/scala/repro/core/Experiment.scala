package repro.core

import repro.checkpoint._
import repro.dataflow._
import repro.nexmark.NexmarkConfig
import repro.queries.QueryDef

/** One experiment cell: query x protocol x parallelism x rate (x skew). */
final case class ExpConfig(
    query: QueryDef,
    protocolName: String,
    parallelism: Int,
    ratePerSec: Double,
    hotRatio: Double = 0.0,
    sim: SimConfig = SimConfig(),
    inputHorizonMicros: Option[Long] = None,
    seed: Long = 7L,
)

/** Frozen measurements of one run — everything the tables need. */
final case class ExpResult(
    cfg: ExpConfig,
    // Table II
    dataBytes: Long,
    protoBytes: Long,
    // Table III / IV
    totalCounted: Long,
    forcedCounted: Long,
    invalidCounted: Long,
    avgCheckpointMicros: Double,
    restartMicros: Long,
    // general health / extra metrics
    p50Micros: Long,
    p99Micros: Long,
    sinkRecords: Long,
    recoveryMicros: Long,
    replayedMessages: Long,
    eoViolations: Long,
    dedupDropped: Long,
    unconsumed: Long,
    maxQueue: Int,
) {
  /** Table II's ratio: total traffic vs a checkpoint-free execution, which
    * moves the same data bytes but zero protocol bytes.
    */
  def overheadRatio: Double =
    if (dataBytes == 0) 1.0 else (dataBytes + protoBytes).toDouble / dataBytes
  def invalidPct: Double =
    if (totalCounted == 0) 0.0 else 100.0 * invalidCounted / totalCounted
}

/** Runs experiment cells on the dataflow simulator — the reproduction of
  * the paper's CheckMate harness (§IV, §VII-A).
  */
object Experiment {

  def protocolFor(name: String): Protocol = name match {
    case "COOR" => new Coordinated
    case "UNC"  => new Uncoordinated
    case "CIC"  => new Hmnr
    case other  => sys.error(s"unknown protocol $other")
  }

  /** Build and run one cell; returns both the live runtime (for digest
    * inspection) and the frozen result. `wrap` may decorate the protocol
    * the runtime drives; the result is frozen from the undecorated one.
    */
  def run(cfg: ExpConfig, wrap: Protocol => Protocol = identity): (Runtime, ExpResult) = {
    val protocol = protocolFor(cfg.protocolName)
    val graph = cfg.query.graph(cfg.parallelism)
    val horizon = cfg.inputHorizonMicros.getOrElse(cfg.sim.endMicros)
    val input = cfg.query.input(cfg.parallelism,
      NexmarkConfig(cfg.ratePerSec, horizon, hotRatio = cfg.hotRatio, seed = cfg.seed,
        include = cfg.query.includes))
    val rt = new Runtime(graph, wrap(protocol), cfg.sim, input).run()
    (rt, freeze(cfg, rt, protocol))
  }

  private def mean(xs: Seq[Long]): Double =
    if (xs.isEmpty) 0.0 else xs.sum.toDouble / xs.size

  def freeze(cfg: ExpConfig, rt: Runtime, protocol: Protocol): ExpResult = {
    val m = rt.metrics
    protocol match {
      case c: Coordinated => c.censorOpenRound(cfg.sim.endMicros)
      case _              => ()
    }
    val avgCkpt = protocol.name match {
      case "COOR" => mean(m.roundDurationMicros.toSeq)
      case _      => mean(m.ckptSyncMicros.toSeq)
    }
    val lats = new Array[Long](m.latencies.length)
    var i = 0
    while (i < lats.length) { lats(i) = m.latencies(i).latencyMicros; i += 1 }
    java.util.Arrays.sort(lats)
    def pct(q: Double): Long =
      if (lats.isEmpty) 0L else lats(math.min(lats.length - 1, (q * lats.length).toInt))
    val recovery = m.failureAt match {
      case Some(f) if m.lastLaggedAt > f => m.lastLaggedAt - f
      case _                             => 0L
    }
    ExpResult(cfg,
      dataBytes = m.dataBytes, protoBytes = m.protoBytes,
      totalCounted = rt.store.counted, forcedCounted = rt.store.forcedCounted,
      invalidCounted = m.invalidCounted.toLong, avgCheckpointMicros = avgCkpt,
      restartMicros = m.restartMicros,
      p50Micros = pct(0.50), p99Micros = pct(0.99),
      sinkRecords = m.sinkRecords, recoveryMicros = recovery,
      replayedMessages = m.replayedMessages, eoViolations = m.eoViolations,
      dedupDropped = m.dedupDropped, unconsumed = rt.unconsumedSourceEvents,
      maxQueue = m.maxQueuedMessages)
  }
}
