package repro.dataflow

/** Cost model and schedule of a simulation run. All times in microseconds
  * of virtual time. Defaults are calibrated to commodity-cluster magnitudes
  * (sub-ms network, ~ms-scale object-store PUTs) so protocol effects show
  * at the same orders of magnitude as the paper's testbed.
  *
  * @param netLatencyMicros    one-way channel propagation delay
  * @param serdeMicrosPerKb    CPU cost per KiB to (de)serialize a message,
  *                            charged on send and on receive. CIC's
  *                            piggyback adds about 0.05 % per hop at this
  *                            value, so COOR, UNC and CIC reach equal MSTs
  *                            (the paper's Fig. 7 gap is not reproduced)
  * @param rpcLatencyMicros    worker <-> coordinator control-plane latency
  * @param storePutMicros      durable-store PUT base latency
  * @param storeMicrosPerKb    durable-store transfer cost per KiB
  * @param snapshotBaseMicros  synchronous part of a checkpoint (state copy)
  * @param snapshotMicrosPerKb synchronous copy cost per KiB of state
  * @param coorIntervalMicros  COOR round interval
  * @param localIntervalMicros UNC/CIC per-instance checkpoint interval
  * @param warmupMicros        measurement starts after this instant
  * @param runMicros           measured run length (metrics window)
  * @param failAtMicros        failure instant relative to warmup end; None = no failure
  * @param detectMicros        failure-detection delay (not part of restart time)
  * @param seed                master seed for all jittered decisions
  */
final case class SimConfig(
    netLatencyMicros: Long = 500L,
    serdeMicrosPerKb: Double = 20.0,
    rpcLatencyMicros: Long = 1000L,
    storePutMicros: Long = 4000L,
    storeMicrosPerKb: Double = 5.0,
    snapshotBaseMicros: Long = 10L,
    snapshotMicrosPerKb: Double = 2.0,
    coorIntervalMicros: Long = 2_500_000L,
    localIntervalMicros: Long = 2_000_000L,
    warmupMicros: Long = 10_000_000L,
    runMicros: Long = 60_000_000L,
    failAtMicros: Option[Long] = Some(18_000_000L),
    detectMicros: Long = 1_000_000L,
    seed: Long = 42L,
) {
  /** Virtual end of the run (warmup + measured window). */
  def endMicros: Long = warmupMicros + runMicros
  /** Absolute failure instant, if any. */
  def failAbs: Option[Long] = failAtMicros.map(_ + warmupMicros)

  def serdeMicros(bytes: Long): Long  = math.round(bytes / 1024.0 * serdeMicrosPerKb)
  def uploadMicros(bytes: Long): Long = storePutMicros + math.round(bytes / 1024.0 * storeMicrosPerKb)
  def snapshotMicros(bytes: Long): Long =
    snapshotBaseMicros + math.round(bytes / 1024.0 * snapshotMicrosPerKb)
}
