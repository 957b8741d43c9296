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
  private var nInstances = 0
  private var activeRound: Option[Int] = None
  private var roundStart: Long = 0L
  private var nextRound: Int = 1
  /** Instance -> its durable checkpoint in the active round. */
  private val durableInRound = mutable.Map.empty[InstanceId, CkptMeta]
  /** The checkpoints of the newest complete round, or the initial ones: the recovery line. */
  private var lastLine: Map[InstanceId, CkptMeta] = _
  /** Per instance, by its dense index: the round it is aligning (0 = none;
    * rounds start at 1) and when that round's first marker arrived.
    */
  private var aligning: Array[Int] = _
  private var alignStart: Array[Long] = _
  /** round -> (start, end) of completed rounds. */
  val completedRounds = mutable.Map.empty[Int, (Long, Long)]

  def init(r: ProtocolRuntime): Unit = {
    rt = r
    val ids = r.graph.wiring.instances
    nInstances = ids.size
    lastLine = ids.iterator.map(id => id -> r.store.durable(id, 0L).head).toMap
    aligning = new Array[Int](nInstances)
    alignStart = new Array[Long](nInstances)
  }

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
      rt.scheduleTimer(now + SimConfig.RpcLatencyMicros, "coor.trigger",
        Some(InstanceId(op.name, i)), r.toLong)
    }
  }

  def piggybackFor(sender: InstanceId, channel: ChannelId, now: Long): Option[Piggyback] = None

  def beforeApply(inst: Instance, msg: Msg, now: Long): Boolean = false

  def onMarker(inst: Instance, channel: ChannelId, round: Int, now: Long): Unit = {
    val i = inst.index
    if (aligning(i) == 0) {
      aligning(i) = round
      alignStart(i) = now
    } else require(aligning(i) == round,
      s"marker for round $round while aligning round ${aligning(i)} at ${inst.id}")
    if (inst.allInputsBlocked) {
      // Alignment complete: snapshot, forward markers, unblock.
      if (rt.cfg.inWindow(now)) rt.metrics.alignMicros += now - alignStart(i)
      rt.checkpointNow(inst.id, CoordinatedCkpt(round))
      rt.sendMarkers(inst.id, round)
      inst.unblockAll()
      aligning(i) = 0
    }
  }

  def onCheckpoint(inst: Instance, meta: CkptMeta, now: Long): Unit = meta.kind match {
    case CoordinatedCkpt(r) if inst.spec.isSource => rt.sendMarkers(inst.id, r)
    case _ => ()
  }

  def onDurable(meta: CkptMeta, now: Long): Unit = meta.kind match {
    case CoordinatedCkpt(r) if activeRound.contains(r) =>
      rt.addProtocolBytes(RpcBytes) // durable-ack to the coordinator
      durableInRound(meta.id) = meta
      if (durableInRound.size == nInstances) {
        completedRounds(r) = (roundStart, now)
        lastLine = durableInRound.toMap
        // Recovery never goes back past a complete round.
        durableInRound.foreach { case (id, m) => rt.store.collectBelow(id, m.idx, now) }
        if (rt.cfg.inWindow(roundStart)) rt.metrics.roundDurationMicros += now - roundStart
        activeRound = None
        val interval = rt.cfg.coorIntervalMicros
        val next = math.max(now + 1, ((now / interval) + 1) * interval)
        rt.scheduleTimer(next, "coor.round", None, 0L)
      }
    case _ => ()
  }

  /** The censored (lower-bound) duration at `endTime` of a round still in
    * flight then, if any — under skew/backpressure a stalled round IS the
    * checkpointing-time story (paper Fig. 12), and dropping it would bias
    * the average toward the few quick rounds. A round that began in warmup
    * but stalled across the whole window still belongs in the window's
    * statistics. Changes nothing, so a run can be read more than once.
    */
  def openRoundMicros(endTime: Long): Option[Long] =
    activeRound.filter(_ => endTime > roundStart).map(_ => endTime - roundStart)

  def afterResume(now: Long): Unit = {
    activeRound = None
    durableInRound.clear()
    java.util.Arrays.fill(aligning, 0)
    rt.scheduleTimer(now + rt.cfg.coorIntervalMicros, "coor.round", None, 0L)
  }

  /** Recover from the most recent round that was complete and fully durable
    * by `failTime` (round 0 = the initial checkpoints). No replay needed.
    */
  def plan(failTime: Long): RecoveryPlan =
    RecoveryPlan(lastLine, IndexedSeq.empty, restartMicros = Recovery.stateLoadMicros(rt, lastLine),
      invalidCounted = 0, lineAlgoMicros = 0L)
}
