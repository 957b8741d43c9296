package repro.checkpoint

import repro.dataflow._

/** Qualitative protocol features — Table I of the paper. `true` means the
  * protocol has/needs the feature.
  */
final case class ProtocolFeatures(
    blockingMarkers: Boolean,
    inFlightLogging: Boolean,
    deduplicationRequired: Boolean,
    messageOverhead: Boolean,
    independentCheckpoints: Boolean,
    stragglerStalls: Boolean,
    unusedCheckpoints: Boolean,
    forcedCheckpoints: Boolean,
)

/** Everything recovery needs to resume after a global failure.
  *
  * @param line            the recovery line: one durable checkpoint per instance
  * @param replay          in-flight messages to re-deliver, per channel, seq order
  * @param restartMicros   modelled restart time (state load + replay prep)
  * @param invalidCounted  counted checkpoints rolled past (invalid/unusable)
  * @param lineAlgoMicros  cost of the recovery-line computation
  */
final case class RecoveryPlan(
    line: Map[InstanceId, CkptMeta],
    replay: Map[ChannelId, IndexedSeq[Msg]],
    restartMicros: Long,
    invalidCounted: Int,
    lineAlgoMicros: Long,
)

/** A checkpointing protocol, as seen by the dataflow runtime.
  *
  * The runtime drives the dataflow; protocols hook the message path
  * (piggybacks, markers, forced checkpoints), own the checkpoint triggering
  * policy (timers or coordinated rounds), and plan recovery after failure.
  *
  * Decorators wrap a protocol by overriding every member and forwarding it:
  * the benchmark's `TracedProtocol` times each hook that way, and the
  * tests' recording decorator keeps the whole checkpoint history. A member
  * added with a default body would silently bypass every such decorator,
  * so work that needs no new hook (such as garbage collection, which runs
  * inside `onDurable`) belongs inside the existing ones.
  */
trait Protocol {
  def name: String
  def features: ProtocolFeatures
  /** Whether every outgoing data message is appended to the message log. */
  def logsMessages: Boolean
  /** Whether the protocol can run on a cyclic dataflow graph. */
  def supportsCycles: Boolean

  /** Bind to a runtime. Called once before the run starts. */
  def init(rt: ProtocolRuntime): Unit
  /** Schedule initial timers/rounds. */
  def onStart(): Unit
  /** A ProtocolTimer event fired. */
  def onTimer(tag: String, inst: Option[InstanceId], payload: Long, now: Long): Unit
  /** Piggyback to attach to a data message about to be sent (CIC). */
  def piggybackFor(sender: InstanceId, channel: ChannelId, now: Long): Option[Piggyback]
  /** Called before a data message is applied; true = take a forced
    * checkpoint first (CIC Z-cycle prevention).
    */
  def beforeApply(inst: Instance, msg: Msg, now: Long): Boolean
  /** A COOR marker was dequeued at `inst` from `channel`. */
  def onMarker(inst: Instance, channel: ChannelId, round: Int, now: Long): Unit
  /** A checkpoint's synchronous snapshot completed. */
  def onCheckpoint(inst: Instance, meta: CkptMeta, now: Long): Unit
  /** A checkpoint's asynchronous upload completed. */
  def onDurable(meta: CkptMeta, now: Long): Unit
  /** Extra bytes the protocol adds to a checkpoint (CIC vectors). */
  def ckptExtraBytes(inst: Instance): Long = 0L
  /** Re-arm timers/rounds after recovery. */
  def afterResume(now: Long): Unit
  /** Build the recovery plan for a failure at `failTime`. */
  def plan(failTime: Long): RecoveryPlan
}

/** The slice of the runtime that protocols are allowed to touch — keeps the
  * protocol <-> engine contract explicit and testable.
  */
trait ProtocolRuntime {
  def graph: Graph
  def cfg: SimConfig
  def store: StateStore
  def log: MessageLog
  def metrics: repro.metrics.MetricsCollector
  def instance(id: InstanceId): Instance
  def now: Long
  /** Schedule a ProtocolTimer event. */
  def scheduleTimer(time: Long, tag: String, inst: Option[InstanceId], payload: Long): Unit
  /** Request a checkpoint of `inst`: taken immediately if idle, else at the
    * next idle point. `kind` tags it (local/forced/coordinated).
    */
  def requestCheckpoint(id: InstanceId, kind: CkptKind): Unit
  /** Take a checkpoint right now (after any in-progress work), synchronously. */
  def checkpointNow(id: InstanceId, kind: CkptKind): CkptMeta
  /** Send COOR markers for `round` on all out-channels of `inst`. */
  def sendMarkers(id: InstanceId, round: Int): Unit
  /** Account control-plane protocol bytes (RPCs, checkpoint metadata). */
  def addProtocolBytes(bytes: Long): Unit
  /** Virtual end of the run — timers must not fire past this. */
  def endMicros: Long
}
