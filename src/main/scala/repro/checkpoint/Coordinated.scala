package repro.checkpoint

import repro.dataflow._
import scala.collection.mutable

/** Coordinated aligned checkpointing (COOR) — the Chandy–Lamport variant
  * for acyclic dataflows used by Flink et al. (paper §III-A).
  *
  * A coordinator starts a round every `coorIntervalMicros` (never more than
  * one round in flight): it RPCs every source instance, which snapshots and
  * then emits a marker on every out-channel. A non-source instance blocks
  * each channel once its marker arrives and snapshots only when markers
  * have arrived on *all* input channels (alignment), then forwards markers
  * and unblocks. The round completes when every instance's upload is
  * durable; only complete rounds are usable for recovery, so COOR's
  * "checkpointing time" is the full round duration.
  *
  * Alignment guarantees an orphan-free, in-flight-free cut, so recovery
  * needs no message log, no deduplication and no recovery-line search.
  */
final class Coordinated extends Protocol {
  def name = "COOR"
  def features: ProtocolFeatures = ProtocolFeatures(
    blockingMarkers = true, inFlightLogging = false, deduplicationRequired = false,
    messageOverhead = false, independentCheckpoints = false, stragglerStalls = true,
    unusedCheckpoints = false, forcedCheckpoints = false)
  def logsMessages = false
  def supportsCycles = false

  /** Control-plane RPC sizes (trigger / durable-ack), bytes. */
  private val RpcBytes = 24L

  private var rt: ProtocolRuntime = _
  private var activeRound: Option[Int] = None
  private var roundStart: Long = 0L
  private var nextRound: Int = 1
  /** Instance -> idx of its durable checkpoint in the active round. */
  private val durableInRound = mutable.Map.empty[InstanceId, Int]
  /** round -> (start, end) of completed rounds. */
  val completedRounds = mutable.Map.empty[Int, (Long, Long)]

  def init(r: ProtocolRuntime): Unit = rt = r

  def onStart(): Unit =
    rt.scheduleTimer(rt.cfg.coorIntervalMicros, "coor.round", None, 0L)

  def onTimer(tag: String, inst: Option[InstanceId], payload: Long, now: Long): Unit = tag match {
    case "coor.round" =>
      if (activeRound.isEmpty) startRound(now)
      // else: the round in flight delays the next one; it is rescheduled on
      // completion (stragglers stall the checkpointing pipeline — paper §III-A).
    case "coor.trigger" =>
      inst.foreach(id => rt.requestCheckpoint(id, CoordinatedCkpt(payload.toInt)))
    case other => sys.error(s"unexpected timer $other")
  }

  private def startRound(now: Long): Unit = {
    val r = nextRound
    nextRound += 1
    activeRound = Some(r)
    roundStart = now
    durableInRound.clear()
    val sources = rt.graph.ops.filter(_.isSource)
    for (op <- sources; i <- 0 until rt.graph.parallelism) {
      rt.addProtocolBytes(RpcBytes)
      rt.scheduleTimer(now + rt.cfg.rpcLatencyMicros, "coor.trigger",
        Some(InstanceId(op.name, i)), r.toLong)
    }
  }

  def piggybackFor(sender: InstanceId, channel: ChannelId, now: Long): Option[Piggyback] = None

  def beforeApply(inst: Instance, msg: Msg, now: Long): Boolean = false

  def onMarker(inst: Instance, channel: ChannelId, round: Int, now: Long): Unit = {
    inst.aligningRound match {
      case None =>
        inst.aligningRound = Some(round)
        inst.alignStart = now
      case Some(r) =>
        require(r == round, s"marker for round $round while aligning round $r at ${inst.id}")
    }
    inst.block(channel)
    if (inst.allInputsBlocked) {
      // Alignment complete: snapshot, forward markers, unblock.
      val alignDur = now - inst.alignStart
      if (now >= rt.cfg.warmupMicros && now <= rt.cfg.endMicros)
        rt.metrics.alignMicros += alignDur
      rt.checkpointNow(inst.id, CoordinatedCkpt(round))
      rt.sendMarkers(inst.id, round)
      inst.unblockAll()
      inst.aligningRound = None
    }
  }

  def onCheckpoint(inst: Instance, meta: CkptMeta, now: Long): Unit = meta.kind match {
    case CoordinatedCkpt(r) if inst.spec.isSource => rt.sendMarkers(inst.id, r)
    case _ => ()
  }

  def onDurable(meta: CkptMeta, now: Long): Unit = meta.kind match {
    case CoordinatedCkpt(r) if activeRound.contains(r) =>
      rt.addProtocolBytes(RpcBytes) // durable-ack to the coordinator
      durableInRound(meta.id) = meta.idx
      if (durableInRound.size == rt.graph.instances.size) {
        completedRounds(r) = (roundStart, now)
        // Recovery never goes back past a complete round.
        durableInRound.foreach { case (id, idx) => rt.store.collectBelow(id, idx, now) }
        if (roundStart >= rt.cfg.warmupMicros && roundStart <= rt.cfg.endMicros)
          rt.metrics.roundDurationMicros += (now - roundStart)
        activeRound = None
        val interval = rt.cfg.coorIntervalMicros
        val next = math.max(now + 1, ((now / interval) + 1) * interval)
        if (next <= rt.endMicros) rt.scheduleTimer(next, "coor.round", None, 0L)
      }
    case _ => ()
  }

  /** Account a round still in flight at the end of the run as a censored
    * (lower-bound) duration — under skew/backpressure a stalled round IS
    * the checkpointing-time story (paper Fig. 12), and dropping it would
    * bias the average toward the few quick rounds.
    */
  def censorOpenRound(endTime: Long): Unit = activeRound.foreach { _ =>
    // A round that began in warmup but stalled across the whole window
    // still belongs in the window's statistics.
    if (endTime > roundStart)
      rt.metrics.roundDurationMicros += (endTime - roundStart)
  }

  def afterResume(now: Long): Unit = {
    activeRound = None
    durableInRound.clear()
    val next = now + rt.cfg.coorIntervalMicros
    if (next <= rt.endMicros) rt.scheduleTimer(next, "coor.round", None, 0L)
  }

  /** Recover from the most recent round that was complete and fully durable
    * by `failTime` (round 0 = the initial checkpoints). No replay needed.
    */
  def plan(failTime: Long): RecoveryPlan = {
    val all = rt.graph.instances
    val usable = completedRounds.collect {
      case (r, (_, end)) if end <= failTime => r
    }
    val line: Map[InstanceId, CkptMeta] = usable.maxOption match {
      case Some(r) =>
        all.map { id =>
          val m = rt.store.durable(id, failTime)
            .find(c => c.kind == CoordinatedCkpt(r))
            .getOrElse(sys.error(s"round $r complete but checkpoint missing for $id"))
          id -> m
        }.toMap
      case None =>
        all.map(id => id -> rt.store.durable(id, failTime).head).toMap
    }
    RecoveryPlan(line, Map.empty, restartMicros = Recovery.stateLoadMicros(rt, line),
      invalidCounted = 0, lineAlgoMicros = 0L)
  }
}
