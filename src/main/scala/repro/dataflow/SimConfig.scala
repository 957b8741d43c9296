package repro.dataflow

/** Schedule of a simulation run. All times in microseconds of virtual
  * time. The cost model is the same for every run: see [[SimConfig$]].
  *
  * @param coorIntervalMicros  COOR round interval
  * @param localIntervalMicros UNC/CIC per-instance checkpoint interval
  * @param warmupMicros        measurement starts after this instant
  * @param runMicros           measured run length (metrics window)
  * @param failAtMicros        failure instant relative to warmup end; None = no failure
  */
final case class SimConfig(
    coorIntervalMicros: Long = 2_500_000L,
    localIntervalMicros: Long = 2_000_000L,
    warmupMicros: Long = 10_000_000L,
    runMicros: Long = 60_000_000L,
    failAtMicros: Option[Long] = Some(18_000_000L),
) {
  /** Virtual end of the run (warmup + measured window). */
  def endMicros: Long = warmupMicros + runMicros
  /** Absolute failure instant, if any. */
  def failAbs: Option[Long] = failAtMicros.map(_ + warmupMicros)
  /** Whether `t` lies in the measured window [warmup, end], the only one the metrics count. */
  def inWindow(t: Long): Boolean = t >= warmupMicros && t <= endMicros
}

/** The calibrated cost model of the simulated testbed, one for every
  * cell, as in the paper's single-cluster evaluation. Magnitudes are those
  * of a commodity cluster (sub-ms network, ~ms-scale object-store PUTs),
  * so protocol effects show at the same orders of magnitude as the
  * paper's testbed.
  */
object SimConfig {
  /** One-way channel propagation delay. */
  val NetLatencyMicros = 500L
  /** CPU cost per KiB to (de)serialize a message, charged on send and on
    * receive. CIC's piggyback adds about 0.05 % per hop at this value, so
    * COOR, UNC and CIC reach equal MSTs (the paper's Fig. 7 gap is not
    * reproduced).
    */
  val SerdeMicrosPerKb = 20.0
  /** Worker <-> coordinator control-plane latency. */
  val RpcLatencyMicros = 1000L
  /** Durable-store PUT base latency. */
  val StorePutMicros = 4000L
  /** Durable-store transfer cost per KiB. */
  val StoreMicrosPerKb = 5.0
  /** Synchronous part of a checkpoint (state copy). */
  val SnapshotBaseMicros = 10L
  /** Synchronous copy cost per KiB of state. */
  val SnapshotMicrosPerKb = 2.0
  /** Failure-detection delay (not part of restart time). */
  val DetectMicros = 1_000_000L
  /** CPU cost to process one COOR marker. */
  val MarkerCostMicros = 5L
  /** Per-channel fetch handshake with the log store at restart. */
  val ReplayFetchBaseMicros = 500L
  /** Per-message replay preparation (deserialize, re-enqueue). */
  val ReplayPrepPerMsgMicros = 3L
  /** Modelled cost per checkpoint-graph node of the recovery-line search. */
  val LineAlgoPerNodeMicros = 1L
  /** Master seed for all jittered protocol decisions. */
  val Seed = 42L

  def serdeMicros(bytes: Long): Long  = math.round(bytes / 1024.0 * SerdeMicrosPerKb)
  def uploadMicros(bytes: Long): Long = StorePutMicros + math.round(bytes / 1024.0 * StoreMicrosPerKb)
  def snapshotMicros(bytes: Long): Long =
    SnapshotBaseMicros + math.round(bytes / 1024.0 * SnapshotMicrosPerKb)
  /** Fetching and preparing one channel's replay of `msgs` messages, `bytes` in all. */
  def replayMicros(bytes: Long, msgs: Int): Long =
    ReplayFetchBaseMicros + math.round(bytes / 1024.0 * StoreMicrosPerKb) +
      ReplayPrepPerMsgMicros * msgs
}
