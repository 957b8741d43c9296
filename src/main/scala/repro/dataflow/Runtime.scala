package repro.dataflow

import repro.checkpoint._
import repro.metrics.MetricsCollector
import scala.collection.mutable

/** The streaming-dataflow engine: a deterministic discrete-event simulator
  * of the paper's testbed (§IV). It executes a [[Graph]] over a replayable
  * [[SourceInput]] under a pluggable checkpointing [[Protocol]], injects
  * the configured global failure and performs protocol-driven recovery.
  *
  * All scheduling is virtual-time (microseconds) and fully deterministic
  * in (graph, input, config, protocol): ties in the event queue break by
  * insertion order, channels are FIFO, and every jittered decision is
  * seeded from `cfg.seed`.
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
  val store   = new StateStore(cfg.warmupMicros, cfg.endMicros)
  val log     = new MessageLog
  val metrics = new MetricsCollector

  private var clock: Long = 0L
  def now: Long = clock
  def endMicros: Long = cfg.endMicros

  /** Source-lag threshold beyond which the system counts as "not recovered". */
  private val LagThresholdMicros = 300_000L
  private val MarkerCostMicros   = 5L

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

  /** Source input of every instance, by dense index (empty for non-sources). */
  private val srcEvents: Array[IndexedSeq[SourceEvent]] = nodes.map(i => input.events(i.id))

  def instance(id: InstanceId): Instance = insts(id)
  def allInstances: Iterable[Instance]   = insts.values

  private var pendingPlan: Option[RecoveryPlan] = None
  private var failed = false

  // ------------------------------------------------------------------ setup

  /** Initial checkpoint 0 for every instance: empty state, durable at t=0.
    * This makes "recover from scratch" a regular recovery line.
    */
  private def writeInitialCheckpoints(): Unit =
    insts.values.foreach { inst =>
      store.put(CkptMeta(inst.id, 0, InitialCkpt, 0L, 0L, 0L, inst.logic.snapshot(),
        inst.sentVector, inst.receivedVector, 0L, counted = false, syncMicros = 0L))
    }

  // ------------------------------------------------------------- main loop

  /** Run the simulation to its horizon; returns this for chaining. */
  def run(): Runtime = {
    writeInitialCheckpoints()
    protocol.init(this)
    protocol.onStart()
    insts.values.foreach { inst =>
      val evs = srcEvents(inst.index)
      if (inst.spec.isSource && evs.nonEmpty) queue.schedule(evs.head.ts, inst.wake)
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
    case UploadDone(id, idx) =>
      store.byIdx(id, idx).foreach(m => protocol.onDurable(m, clock))
    case InjectFailure => injectFailure()
    case Resume        => resume()
  }

  // ------------------------------------------------------------ processing

  private def tryStart(inst: Instance): Unit = {
    if (failed) return
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
    val evs = srcEvents(inst.index)
    val hasSrc = inst.spec.isSource && inst.srcOffset < evs.length
    val ts = if (hasSrc) evs(inst.srcOffset.toInt).ts else 0L

    if (k >= 0 && (!hasSrc || inst.inbox(k).headArrival <= math.max(ts, clock)))
      processChannel(inst, k)
    else if (hasSrc && ts <= clock)
      processSource(inst)
    else if (k < 0 && hasSrc)
      queue.schedule(ts, inst.wake) // source event in the future
    // else idle: blocked or empty; a Deliver will wake us
  }

  private def processSource(inst: Instance): Unit = {
    val ev = srcEvents(inst.index)(inst.srcOffset.toInt)
    inst.srcOffset += 1
    if (clock - ev.ts > LagThresholdMicros && clock > metrics.lastLaggedAt)
      metrics.lastLaggedAt = clock
    applyRecord(inst, ev.value, fromOp = "", srcTs = ev.ts, start = clock, extraCost = 0L)
    queue.schedule(inst.busyUntil, inst.wake)
  }

  /** Process the oldest message of input channel `k`. */
  private def processChannel(inst: Instance, k: Int): Unit = {
    val msg = inst.inbox(k).dequeue()
    msg.kind match {
      case Marker(round) =>
        inst.busyUntil = clock + MarkerCostMicros
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
            extraCost = cfg.serdeMicros(msg.wireBytes))
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
      if (busy >= cfg.warmupMicros && busy <= cfg.endMicros) {
        metrics.recordLatency(busy, busy - srcTs)
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
    val newBusy = at + cfg.serdeMicros(msg.wireBytes)
    if (at >= cfg.warmupMicros && at <= cfg.endMicros) {
      metrics.dataBytes += Msg.FrameBytes + msg.payloadBytes
      metrics.dataMessages += 1
      metrics.protoBytes += msg.piggybackBytes
    }
    if (protocol.logsMessages) log.append(msg)
    transmit(inst, k, msg, newBusy)
    newBusy
  }

  /** Put `msg` on out-channel `k` of `inst` at `departure`. */
  private def transmit(inst: Instance, k: Int, msg: Msg, departure: Long): Unit =
    queue.schedule(departure + cfg.netLatencyMicros,
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

  def checkpointNow(id: InstanceId, kind: CkptKind): CkptMeta =
    performCheckpoint(insts(id), kind)

  /** Take a checkpoint of `inst` starting at max(now, busyUntil): a
    * synchronous snapshot (blocks the instance) followed by an async upload
    * that makes it durable.
    */
  def performCheckpoint(inst: Instance, kind: CkptKind): CkptMeta = {
    val bytes = inst.stateBytes + protocol.ckptExtraBytes(inst)
    val sync = cfg.snapshotMicros(bytes)
    val startAt = math.max(clock, inst.busyUntil)
    val takenAt = startAt + sync
    val durableAt = takenAt + cfg.uploadMicros(bytes)
    val meta = CkptMeta(inst.id, inst.nextCkptIdx, kind, takenAt, durableAt, bytes,
      inst.logic.snapshot(), inst.sentVector, inst.receivedVector, inst.srcOffset,
      counted = inst.spec.counted, syncMicros = sync)
    inst.nextCkptIdx += 1
    inst.busyUntil = takenAt
    store.put(meta)
    queue.schedule(durableAt, UploadDone(inst.id, meta.idx))
    if (meta.counted && takenAt >= cfg.warmupMicros && takenAt <= cfg.endMicros)
      metrics.ckptSyncMicros += sync
    protocol.onCheckpoint(inst, meta, takenAt)
    meta
  }

  def sendMarkers(id: InstanceId, round: Int): Unit = {
    val inst = insts(id)
    val departure = math.max(clock, inst.busyUntil)
    for (k <- inst.outCh.indices) {
      val msg = Msg(inst.outCh(k), 0L, Marker(round), null, 0, None, departure)
      if (departure >= cfg.warmupMicros && departure <= cfg.endMicros)
        metrics.protoBytes += Msg.MarkerBytes
      transmit(inst, k, msg, departure)
    }
  }

  def scheduleTimer(time: Long, tag: String, inst: Option[InstanceId], payload: Long): Unit =
    queue.schedule(time, ProtocolTimer(tag, inst, payload))

  def addProtocolBytes(bytes: Long): Unit =
    if (clock >= cfg.warmupMicros && clock <= cfg.endMicros) metrics.protoBytes += bytes

  // ------------------------------------------------------ failure/recovery

  private def injectFailure(): Unit = {
    val failTime = clock
    metrics.failureAt = Some(failTime)
    val plan = protocol.plan(failTime)
    metrics.restartMicros = plan.restartMicros
    metrics.recoveryLineAlgoMicros = plan.lineAlgoMicros
    metrics.invalidCounted = plan.invalidCounted
    metrics.replayedMessages = plan.replay.valuesIterator.map(_.size.toLong).sum
    metrics.replayedBytes = plan.replay.valuesIterator.flatten.map(_.wireBytes.toLong).sum
    // Everything volatile dies: in-flight messages, timers, running uploads.
    queue.clear()
    insts.values.foreach(_.dropVolatile())
    failed = true
    pendingPlan = Some(plan)
    queue.schedule(failTime + cfg.detectMicros + plan.restartMicros, Resume)
    metrics.lastLaggedAt = math.max(metrics.lastLaggedAt, failTime)
  }

  private def resume(): Unit = {
    val plan = pendingPlan.getOrElse(sys.error("resume without a recovery plan"))
    pendingPlan = None
    failed = false
    insts.values.foreach { inst =>
      val meta = plan.line(inst.id)
      inst.logic.restore(meta.snapshot)
      inst.restoreVectors(meta.lastSent, meta.lastReceived)
      inst.srcOffset = meta.srcOffset
      inst.busyUntil = clock
      // Checkpoints past the line describe the rolled-back execution, and
      // the sender re-sends every seq past its restored position.
      store.dropAfter(inst.id, meta.idx)
      if (protocol.logsMessages)
        for (k <- inst.outCh.indices) log.truncateAfter(inst.outCh(k), inst.lastSent(k))
    }
    // Re-deliver logged in-flight messages, per channel in seq order, ahead
    // of any regenerated traffic (regeneration needs >= one service time).
    plan.replay.toSeq.sortBy(_._1.toString).foreach { case (ch, msgs) =>
      val to = wiring.index(ch.to)
      val inIdx = nodes(to).inIndex(ch)
      msgs.zipWithIndex.foreach { case (m, i) =>
        queue.schedule(clock + 1 + i, Deliver(m, to, inIdx))
      }
    }
    insts.values.foreach(inst => queue.schedule(clock + 1, inst.wake))
    protocol.afterResume(clock)
  }

  // ------------------------------------------------------------- post-run

  /** Source events never consumed (nonzero means the run didn't keep up). */
  def unconsumedSourceEvents: Long =
    insts.values.filter(_.spec.isSource)
      .map(i => input.events(i.id).length - i.srcOffset).sum

  /** Messages still queued in instance inboxes at the end of the run. */
  def queuedMessagesAtEnd: Long = nodes.iterator.map(_.queuedMessages).sum
}
