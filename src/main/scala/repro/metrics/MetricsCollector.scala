package repro.metrics

import scala.collection.mutable

/** Mutable per-run measurement sink. The Runtime and the protocols write
  * into this; `Experiment.freeze` turns it into an [[repro.core.ExpResult]]
  * at the end of a run.
  *
  * Byte counters, sink latencies and checkpoint statistics cover only the
  * measured window (`SimConfig.inWindow`): the writers test it, each where
  * it knows the instant.
  */
final class MetricsCollector {
  /** Payload + framing bytes of data messages sent in the window. */
  var dataBytes: Long = 0L
  /** Protocol bytes: markers, piggybacks, checkpoint metadata, control RPCs. */
  var protoBytes: Long = 0L
  /** Data messages sent in the window. */
  var dataMessages: Long = 0L

  /** Sink latencies (measurement window only): the first `nLatencies`
    * slots, in recording order.
    */
  private var lat = new Array[Long](MetricsCollector.InitialLatencyCapacity)
  private var nLatencies = 0

  /** A copy of the sink latencies, in recording order. */
  def latencies: Array[Long] = java.util.Arrays.copyOf(lat, nLatencies)

  /** Counted (source/stateful) checkpoints taken in the window, rolled-back
    * ones included — Table III/IV's total.
    */
  var countedCkpts: Long = 0L
  /** The forced (CIC) ones among [[countedCkpts]]. */
  var forcedCkpts: Long = 0L
  /** Synchronous checkpoint durations (UNC/CIC "checkpointing time"). */
  val ckptSyncMicros = mutable.ArrayBuffer.empty[Long]
  /** COOR: full round durations (its "checkpointing time"). */
  val roundDurationMicros = mutable.ArrayBuffer.empty[Long]
  /** COOR: per-instance alignment (blocked-channel) durations. */
  val alignMicros = mutable.ArrayBuffer.empty[Long]

  /** Exactly-once ledger violations (lost or double-applied sequences). */
  var eoViolations: Long = 0L
  /** Messages dropped by sequence-number deduplication (replay overlap). */
  var dedupDropped: Long = 0L

  /** Records processed by all non-sink operators (throughput accounting). */
  var processedRecords: Long = 0L
  /** Records that reached a sink in the measurement window. */
  var sinkRecords: Long = 0L

  // --- failure/recovery ---
  var failureAt: Option[Long] = None
  var restartMicros: Long = 0L
  var recoveryLineAlgoMicros: Long = 0L
  var replayedMessages: Long = 0L
  var replayedBytes: Long = 0L
  var invalidCounted: Int = 0
  /** Last time any source event was processed with lag > threshold. */
  var lastLaggedAt: Long = 0L

  /** Max backlog observed across instances (stability/backpressure probe). */
  var maxQueuedMessages: Int = 0

  def recordLatency(latency: Long): Unit = {
    if (nLatencies == lat.length) lat = java.util.Arrays.copyOf(lat, 2 * lat.length)
    lat(nLatencies) = latency
    nLatencies += 1
  }
}

object MetricsCollector {
  private[metrics] val InitialLatencyCapacity = 1024
}
