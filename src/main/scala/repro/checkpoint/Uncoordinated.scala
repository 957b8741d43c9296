package repro.checkpoint

import repro.dataflow._

/** Uncoordinated checkpointing (UNC, paper §III-B): every instance
  * snapshots on its own jittered timer, with no markers and no blocking.
  *
  * Exactly-once needs the full log-based machinery: sender-side in-flight
  * message logging (upstream backup), per-channel sequence deduplication on
  * replay, and a recovery-line search over the checkpoints' seq vectors
  * ([[Recovery.recoveryLine]]), which also garbage-collects the store and
  * the log as the line moves forward. Checkpoint metadata (the seq
  * vectors) is shipped to the coordinator — the protocol's only message
  * overhead, which Table II shows to be insignificant.
  *
  * Every instance checkpoints so replay stays bounded, but stateless
  * operators and sinks snapshot only channel-position metadata at ~zero
  * cost (and outside the counted totals), reflecting the paper's point
  * that stateless non-source operators need not participate.
  */
class Uncoordinated extends Protocol {
  def name = "UNC"
  def features: ProtocolFeatures = ProtocolFeatures(
    blockingMarkers = false, inFlightLogging = true, deduplicationRequired = true,
    messageOverhead = false, independentCheckpoints = true, stragglerStalls = false,
    unusedCheckpoints = true, forcedCheckpoints = false)
  def logsMessages = true
  def supportsCycles = true

  /** Checkpoint-metadata RPC to the coordinator: header + seq vectors. */
  protected def metaRpcBytes(meta: CkptMeta): Long =
    32L + 8L * (meta.lastSent.size + meta.lastReceived.size)

  protected var rt: ProtocolRuntime = _
  /** Checkpoints made durable since the last collection. */
  private var durableSinceCollect = 0
  private var nInstances = 0

  def init(r: ProtocolRuntime): Unit = {
    rt = r
    nInstances = r.graph.instances.size
  }

  def onStart(): Unit = {
    val rnd = new scala.util.Random(rt.cfg.seed ^ 0x5ca1ab1e)
    val interval = rt.cfg.localIntervalMicros
    // Deterministic per-instance phase jitter spreads checkpoints in time.
    rt.graph.instances.foreach { id =>
      val phase = 1L + math.abs(rnd.nextLong()) % interval
      rt.scheduleTimer(phase, "unc.local", Some(id), 0L)
    }
  }

  def onTimer(tag: String, inst: Option[InstanceId], payload: Long, now: Long): Unit = tag match {
    case "unc.local" =>
      val id = inst.getOrElse(sys.error("local timer without instance"))
      rt.requestCheckpoint(id, LocalCkpt)
      val next = now + rt.cfg.localIntervalMicros
      if (next <= rt.endMicros) rt.scheduleTimer(next, "unc.local", Some(id), 0L)
    case other => sys.error(s"unexpected timer $other")
  }

  def piggybackFor(sender: InstanceId, channel: ChannelId, now: Long): Option[Piggyback] = None
  def beforeApply(inst: Instance, msg: Msg, now: Long): Boolean = false
  def onMarker(inst: Instance, channel: ChannelId, round: Int, now: Long): Unit =
    sys.error(s"$name uses no markers")

  def onCheckpoint(inst: Instance, meta: CkptMeta, now: Long): Unit = ()

  /** Ships the checkpoint's metadata, and collects the store and the log
    * below the recovery line about once per checkpoint interval (when as
    * many checkpoints as there are instances became durable since the
    * last collection).
    */
  def onDurable(meta: CkptMeta, now: Long): Unit = {
    rt.addProtocolBytes(metaRpcBytes(meta))
    durableSinceCollect += 1
    if (durableSinceCollect >= nInstances) {
      durableSinceCollect = 0
      Recovery.collect(rt, now)
    }
  }

  def afterResume(now: Long): Unit = {
    val interval = rt.cfg.localIntervalMicros
    val rnd = new scala.util.Random(rt.cfg.seed ^ now)
    rt.graph.instances.foreach { id =>
      val phase = 1L + math.abs(rnd.nextLong()) % interval
      val t = now + phase
      if (t <= rt.endMicros) rt.scheduleTimer(t, "unc.local", Some(id), 0L)
    }
  }

  def plan(failTime: Long): RecoveryPlan = Recovery.planLogged(rt, failTime)
}
