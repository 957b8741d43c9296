package repro.dataflow

import repro.checkpoint._
import repro.metrics.MetricsCollector
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** The streaming-dataflow engine: a deterministic discrete-event simulator
  * of the paper's testbed (§IV). It executes a [[Graph]] over a replayable
  * [[SourceInput]] under a pluggable checkpointing [[Protocol]], injects
  * the configured global failure and performs protocol-driven recovery.
  *
  * All scheduling is virtual-time (microseconds) and fully deterministic
  * in (graph, input, config, protocol): ties in the event queue break by
  * insertion order, channels are FIFO, and every jittered decision is
  * seeded from `SimConfig.Seed`.
  */
final class Runtime(
    val graph: Graph,
    val protocol: Protocol,
    val cfg: SimConfig,
    val input: SourceInput,
) extends ProtocolRuntime {

  require(!graph.isCyclic || protocol.supportsCycles,
    s"${protocol.name} cannot run on a cyclic dataflow graph (marker deadlock)")

  val queue   = new EventQueue
  val store   = new StateStore
  val log     = new MessageLog(graph.wiring)
  val metrics = new MetricsCollector

  private var clock: Long = 0L

  /** Source-lag threshold beyond which the system counts as "not recovered". */
  private val LagThresholdMicros = 300_000L

  private val wiring = graph.wiring

  /** Every instance, by its dense index in `wiring`. */
  private val nodes: Array[Instance] = wiring.instances.indices.map { g =>
    val id = wiring.instances(g)
    val spec = graph.op(id.op)
    new Instance(g, id, spec, spec.logic(), wiring.inCh(g), wiring.outCh(g))
  }.toArray

  /** Lookup by id. Its iteration order, fixed by the ids' hash codes, is
    * the order of the Wake events that start and resume a run, so it is
    * part of the event sequence.
    */
  private val insts: Map[InstanceId, Instance] = nodes.iterator.map(i => i.id -> i).toMap

  /** Source input columns of every instance, by dense index (empty for
    * non-sources).
    */
  private val srcTimes: Array[Array[Long]] = nodes.map(i => input.times(i.id))
  private val srcValues: Array[Array[Any]] = nodes.map(i => input.values(i.id))

  def allInstances: Iterable[Instance]   = insts.values

  // ------------------------------------------------------------------ setup

  /** Initial checkpoint 0 for every instance: empty state, durable at t=0.
    * This makes "recover from scratch" a regular recovery line.
    */
  private def writeInitialCheckpoints(): Unit =
    insts.values.foreach { inst =>
      store.put(CkptMeta(inst.id, 0, InitialCkpt, 0L, 0L, 0L, inst.logic.snapshot(),
        copy(inst.lastSent), copy(inst.lastReceived), 0L, counted = false, syncMicros = 0L))
    }

  /** A checkpoint's copy of a sequence vector: the instance keeps counting
    * in its own array.
    */
  private def copy(seqs: Array[Long]): ArraySeq.ofLong = new ArraySeq.ofLong(seqs.clone())

  // ------------------------------------------------------------- main loop

  /** Run the simulation to its horizon; returns this for chaining. */
  def run(): Runtime = {
    writeInitialCheckpoints()
    protocol.init(this)
    protocol.onStart()
    insts.values.foreach { inst =>
      val times = srcTimes(inst.index)
      if (inst.spec.isSource && times.nonEmpty) queue.schedule(times(0), inst.wake)
    }
    cfg.failAbs.foreach { t =>
      require(t < cfg.endMicros, "failure must be injected before the end of the run")
      queue.schedule(t, InjectFailure)
    }
    while (queue.nonEmpty && queue.peekTime <= cfg.endMicros) {
      clock = queue.peekTime
      dispatch(queue.popAction())
    }
    this
  }

  private def dispatch(action: SimAction): Unit = action match {
    case Deliver(msg, to, inIdx) =>
      val inst = nodes(to)
      val q = inst.inbox(inIdx)
      q.enqueue(clock, msg)
      if (q.size > metrics.maxQueuedMessages) metrics.maxQueuedMessages = q.size
      tryStart(inst)
    case Wake(i)  => tryStart(nodes(i))
    case ProtocolTimer(tag, inst, payload) => protocol.onTimer(tag, inst, payload, clock)
    case UploadDone(meta) => protocol.onDurable(meta, clock)
    case InjectFailure => injectFailure()
    case Resume(plan)  => resume(plan)
  }

  // ------------------------------------------------------------ processing

  private def tryStart(inst: Instance): Unit = {
    if (!inst.isIdleAt(clock)) return // a Wake at busyUntil is always scheduled
    inst.pendingCkpt match {
      case Some(kind) =>
        inst.pendingCkpt = None
        performCheckpoint(inst, kind)
        queue.schedule(inst.busyUntil, inst.wake)
        return
      case None => ()
    }
    val k = inst.nextChannel
    val times = srcTimes(inst.index)
    val hasSrc = inst.spec.isSource && inst.srcOffset < times.length
    val ts = if (hasSrc) times(inst.srcOffset.toInt) else 0L

    if (k >= 0 && (!hasSrc || inst.inbox(k).headArrival <= math.max(ts, clock)))
      processChannel(inst, k)
    else if (hasSrc && ts <= clock)
      processSource(inst)
    else if (k < 0 && hasSrc)
      queue.schedule(ts, inst.wake) // source event in the future
    // else idle: blocked or empty; a Deliver will wake us
  }

  private def processSource(inst: Instance): Unit = {
    val off = inst.srcOffset.toInt
    val ts = srcTimes(inst.index)(off)
    inst.srcOffset += 1
    if (clock - ts > LagThresholdMicros && clock > metrics.lastLaggedAt)
      metrics.lastLaggedAt = clock
    applyRecord(inst, srcValues(inst.index)(off), fromOp = "", srcTs = ts, start = clock,
      extraCost = 0L)
    queue.schedule(inst.busyUntil, inst.wake)
  }

  /** Process the oldest message of input channel `k`. */
  private def processChannel(inst: Instance, k: Int): Unit = {
    val msg = inst.inbox(k).dequeue()
    msg.kind match {
      case Marker(round) =>
        // Aligned checkpointing: input k waits until the protocol unblocks it.
        inst.block(k)
        inst.busyUntil = clock + SimConfig.MarkerCostMicros
        protocol.onMarker(inst, msg.channel, round, clock)
      case Data =>
        if (msg.seq <= inst.lastReceived(k)) {
          metrics.dedupDropped += 1
          inst.busyUntil = clock + 1
        } else {
          // A CIC-forced checkpoint must be taken BEFORE delivering the
          // message: the snapshot excludes both the record's state effect
          // and its sequence number, so recovery replays it.
          var start = clock
          if (protocol.beforeApply(inst, msg, clock)) {
            performCheckpoint(inst, ForcedCkpt)
            start = inst.busyUntil
          }
          if (msg.seq != inst.lastReceived(k) + 1) metrics.eoViolations += 1
          inst.lastReceived(k) = msg.seq
          applyRecord(inst, msg.value, msg.channel.from.op, msg.srcTs, start,
            extraCost = SimConfig.serdeMicros(msg.wireBytes))
        }
    }
    queue.schedule(inst.busyUntil, inst.wake)
  }

  private val emitBuf = mutable.ArrayBuffer.empty[Any]
  private val emit: Any => Unit = v => emitBuf += v

  private def applyRecord(inst: Instance, value: Any, fromOp: String, srcTs: Long,
      start: Long, extraCost: Long): Unit = {
    var busy = start + inst.spec.serviceMicros + extraCost
    if (inst.spec.isSink) {
      inst.logic.onRecord(value, fromOp, _ => ())
      if (cfg.inWindow(busy)) {
        metrics.recordLatency(busy - srcTs)
        metrics.sinkRecords += 1
      }
    } else {
      metrics.processedRecords += 1
      emitBuf.clear()
      inst.logic.onRecord(value, fromOp, emit)
      val routes = wiring.routes(inst.index)
      var i = 0
      while (i < emitBuf.length) {
        val v = emitBuf(i)
        var r = 0
        while (r < routes.length) {
          val e = routes(r).edge
          val outIdx = routes(r).outIdx
          if (e.select(v)) e.part match {
            case ForwardPart => busy = send(inst, outIdx(inst.id.idx), v, srcTs, busy)
            case HashPart    => busy = send(inst, outIdx(graph.hashTarget(e, v)), v, srcTs, busy)
            case BroadcastPart =>
              var tgt = 0
              while (tgt < outIdx.length) {
                busy = send(inst, outIdx(tgt), v, srcTs, busy)
                tgt += 1
              }
          }
          r += 1
        }
        i += 1
      }
    }
    inst.busyUntil = busy
  }

  /** Serialize + transmit one data message on out-channel `k`; returns the
    * sender's new busy time.
    */
  private def send(inst: Instance, k: Int, value: Any, srcTs: Long, at: Long): Long = {
    val ch = inst.outCh(k)
    val seq = inst.lastSent(k) + 1
    inst.lastSent(k) = seq
    val piggy = protocol.piggybackFor(inst.id, ch, at)
    val msg = Msg(ch, seq, Data, value, Sizer.bytes(value), piggy, srcTs)
    val newBusy = at + SimConfig.serdeMicros(msg.wireBytes)
    if (cfg.inWindow(at)) {
      metrics.dataBytes += Msg.FrameBytes + msg.payloadBytes
      metrics.dataMessages += 1
      metrics.protoBytes += msg.piggybackBytes
    }
    if (protocol.logsMessages) log(inst.index, k).append(msg)
    transmit(inst, k, msg, newBusy)
    newBusy
  }

  /** Put `msg` on out-channel `k` of `inst` at `departure`. */
  private def transmit(inst: Instance, k: Int, msg: Msg, departure: Long): Unit =
    queue.schedule(departure + SimConfig.NetLatencyMicros,
      Deliver(msg, wiring.peer(inst.index)(k), wiring.peerIn(inst.index)(k)))

  // ---------------------------------------------------------- checkpoints

  def requestCheckpoint(id: InstanceId, kind: CkptKind): Unit = {
    val inst = insts(id)
    if (inst.isIdleAt(clock) && inst.pendingCkpt.isEmpty) {
      performCheckpoint(inst, kind)
      queue.schedule(inst.busyUntil, inst.wake)
    } else if (inst.pendingCkpt.isEmpty) {
      inst.pendingCkpt = Some(kind)
    }
  }

  def checkpointNow(id: InstanceId, kind: CkptKind): Unit =
    performCheckpoint(insts(id), kind)

  /** Take a checkpoint of `inst` starting at max(now, busyUntil): a
    * synchronous snapshot (blocks the instance) followed by an async upload
    * that makes it durable.
    */
  private def performCheckpoint(inst: Instance, kind: CkptKind): Unit = {
    val bytes = inst.stateBytes + protocol.ckptExtraBytes(inst)
    val sync = SimConfig.snapshotMicros(bytes)
    val startAt = math.max(clock, inst.busyUntil)
    val takenAt = startAt + sync
    val durableAt = takenAt + SimConfig.uploadMicros(bytes)
    val meta = CkptMeta(inst.id, inst.nextCkptIdx, kind, takenAt, durableAt, bytes,
      inst.logic.snapshot(), copy(inst.lastSent), copy(inst.lastReceived), inst.srcOffset,
      counted = inst.spec.counted, syncMicros = sync)
    inst.nextCkptIdx += 1
    inst.busyUntil = takenAt
    store.put(meta)
    queue.schedule(durableAt, UploadDone(meta))
    if (meta.counted && cfg.inWindow(takenAt)) {
      metrics.ckptSyncMicros += sync
      metrics.countedCkpts += 1
      if (kind == ForcedCkpt) metrics.forcedCkpts += 1
    }
    protocol.onCheckpoint(inst, meta, takenAt)
  }

  def sendMarkers(id: InstanceId, round: Int): Unit = {
    val inst = insts(id)
    val departure = math.max(clock, inst.busyUntil)
    for (k <- inst.outCh.indices) {
      val msg = Msg(inst.outCh(k), 0L, Marker(round), null, 0, None, departure)
      if (cfg.inWindow(departure)) metrics.protoBytes += Msg.MarkerBytes
      transmit(inst, k, msg, departure)
    }
  }

  def scheduleTimer(time: Long, tag: String, inst: Option[InstanceId], payload: Long): Unit =
    queue.schedule(time, ProtocolTimer(tag, inst, payload))

  def addProtocolBytes(bytes: Long): Unit =
    if (cfg.inWindow(clock)) metrics.protoBytes += bytes

  // ------------------------------------------------------ failure/recovery

  private def injectFailure(): Unit = {
    val failTime = clock
    metrics.failureAt = Some(failTime)
    val plan = protocol.plan(failTime)
    metrics.restartMicros = plan.restartMicros
    metrics.recoveryLineAlgoMicros = plan.lineAlgoMicros
    metrics.invalidCounted = plan.invalidCounted
    metrics.replayedMessages = plan.replay.iterator.map(_.msgs.size.toLong).sum
    metrics.replayedBytes = plan.replay.iterator.flatMap(_.msgs).map(_.wireBytes.toLong).sum
    // Everything volatile dies: in-flight messages, timers, running uploads.
    queue.clear()
    insts.values.foreach(_.dropVolatile())
    queue.schedule(failTime + SimConfig.DetectMicros + plan.restartMicros, Resume(plan))
    metrics.lastLaggedAt = math.max(metrics.lastLaggedAt, failTime)
  }

  private def resume(plan: RecoveryPlan): Unit = {
    insts.values.foreach { inst =>
      val meta = plan.line(inst.id)
      inst.logic.restore(meta.snapshot)
      meta.lastSent.copyToArray(inst.lastSent)
      meta.lastReceived.copyToArray(inst.lastReceived)
      inst.srcOffset = meta.srcOffset
      inst.busyUntil = clock
      // Checkpoints past the line describe the rolled-back execution, and
      // the sender re-sends every seq past its restored position.
      store.dropAfter(inst.id, meta.idx)
      if (protocol.logsMessages)
        for (k <- inst.outCh.indices) log(inst.index, k).truncateAfter(inst.lastSent(k))
    }
    // Re-deliver logged in-flight messages, channel after channel in the
    // plan's order, each in seq order, ahead of any regenerated traffic
    // (regeneration needs >= one service time).
    for (r <- plan.replay; i <- r.msgs.indices)
      queue.schedule(clock + 1 + i, Deliver(r.msgs(i), r.to, r.inIdx))
    insts.values.foreach(inst => queue.schedule(clock + 1, inst.wake))
    protocol.afterResume(clock)
  }

  // ------------------------------------------------------------- post-run

  /** Source events never consumed (nonzero means the run didn't keep up). */
  def unconsumedSourceEvents: Long =
    insts.values.filter(_.spec.isSource)
      .map(i => input.size(i.id) - i.srcOffset).sum

  /** Messages still queued in instance inboxes at the end of the run. */
  def queuedMessagesAtEnd: Long = nodes.iterator.map(_.queuedMessages).sum
}
