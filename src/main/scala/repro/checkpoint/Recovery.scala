package repro.checkpoint

import repro.dataflow._
import scala.collection.mutable

/** Restart-time model and shared recovery-plan construction for the logged
  * (UNC/CIC) protocols.
  *
  * Restart time (paper §V) covers state reload plus, for logged protocols,
  * running the recovery-line algorithm (insignificant — paper §VII-B) and
  * fetching/preparing the messages to replay (the dominant cost that makes
  * UNC/CIC restarts up to 10x slower than COOR at high parallelism).
  */
object Recovery {

  /** Per-channel fetch handshake with the log store. */
  private val ReplayFetchBaseMicros = 500L
  /** Per-message preparation (deserialize, re-enqueue). */
  private val ReplayPrepPerMsgMicros = 3L
  /** Modelled cost per checkpoint-graph node of the recovery-line search. */
  val LineAlgoPerNodeMicros = 1L

  /** Workers reload their instances' states sequentially; workers are
    * parallel, so restart is the max across workers.
    */
  def stateLoadMicros(rt: ProtocolRuntime, line: Map[InstanceId, CkptMeta]): Long = {
    val perWorker = line.groupBy(_._1.idx).map { case (_, metas) =>
      metas.valuesIterator.map(m => rt.cfg.uploadMicros(m.stateBytes)).sum
    }
    if (perWorker.isEmpty) 0L else perWorker.max
  }

  /** Replay-fetch/prep cost, max across (receiving) workers. */
  def replayPrepMicros(rt: ProtocolRuntime, replay: Map[ChannelId, IndexedSeq[Msg]]): Long = {
    val perWorker = replay.groupBy(_._1.to.idx).map { case (_, chans) =>
      chans.iterator.map { case (_, msgs) =>
        val bytes = msgs.iterator.map(_.wireBytes.toLong).sum
        ReplayFetchBaseMicros + math.round(bytes / 1024.0 * rt.cfg.storeMicrosPerKb) +
          ReplayPrepPerMsgMicros * msgs.size
      }.sum
    }
    if (perWorker.isEmpty) 0L else perWorker.max
  }

  /** The maximum consistent recovery line over `ckpts` (per instance, the
    * candidate checkpoints oldest first), as a worklist fixpoint over the
    * seq vectors: start from every instance's newest checkpoint; while some
    * channel i -> j has `line(j).lastReceived(ch) > line(i).lastSent(ch)`
    * (an orphan message), move j back to its newest checkpoint that does
    * not orphan it, and recheck j's receivers. Vectors grow along each
    * instance's list, so j never moves below the greatest consistent line:
    * the result is the line Algorithm 1 (rollback propagation over the
    * checkpoint graph) returns, at the cost of one pass per move.
    *
    * @return (recovery line, number of checkpoints rolled past per instance)
    */
  def recoveryLine(ckpts: Map[InstanceId, IndexedSeq[CkptMeta]])
      : (Map[InstanceId, CkptMeta], Map[InstanceId, Int]) = {
    val ids = ckpts.keys.toArray
    val lists = ids.map(ckpts)
    require(lists.forall(_.nonEmpty), "every instance needs at least its initial checkpoint")
    val n = ids.length
    val at = ids.iterator.zipWithIndex.toMap
    // Channels between different instances: (channel, sender) per receiver,
    // and the receivers of every sender.
    val inbound = Array.fill(n)(mutable.ArrayBuffer.empty[(ChannelId, Int)])
    val receivers = Array.fill(n)(mutable.ArrayBuffer.empty[Int])
    for (i <- 0 until n; ch <- lists(i).last.lastSent.keysIterator; j <- at.get(ch.to) if j != i) {
      inbound(j) += ((ch, i))
      receivers(i) += j
    }
    val pos = lists.map(_.length - 1)
    val queued = Array.fill(n)(true)
    val work = mutable.Queue.from(0 until n)
    while (work.nonEmpty) {
      val j = work.dequeue()
      queued(j) = false
      var p = pos(j)
      for ((ch, i) <- inbound(j)) {
        val sent = lists(i)(pos(i)).lastSent.getOrElse(ch, 0L)
        while (lists(j)(p).lastReceived.getOrElse(ch, 0L) > sent) {
          require(p > 0, s"the recovery line fell past the oldest checkpoint of ${ids(j)} — " +
            "initial checkpoints must form a consistent line")
          p -= 1
        }
      }
      if (p < pos(j)) {
        pos(j) = p
        receivers(j).foreach(k => if (!queued(k)) { queued(k) = true; work.enqueue(k) })
      }
    }
    val line = (0 until n).map(i => ids(i) -> lists(i)(pos(i))).toMap
    val rolledPast = (0 until n).map(i => ids(i) -> (lists(i).length - 1 - pos(i))).toMap
    (line, rolledPast)
  }

  /** Full UNC/CIC recovery plan: compute the recovery line over the durable
    * checkpoints, extract per-channel replay ranges
    * (receiver.lastReceived, sender.lastSent] from the message log, and
    * price the restart.
    */
  def planLogged(rt: ProtocolRuntime, failTime: Long): RecoveryPlan = {
    val ckpts = rt.graph.instances.map(id => id -> rt.store.durable(id, failTime)).toMap
    val (line, rolledPast) = recoveryLine(ckpts)

    // Invalid checkpoints: counted checkpoints the algorithm rolled past —
    // they cannot be part of this (or any fresher) consistent recovery line.
    val invalid = rolledPast.iterator.map { case (id, n) =>
      if (n == 0) 0 else ckpts(id).takeRight(n).count(_.counted)
    }.sum

    // In-flight channel state of the line, from the sender-side logs.
    val replay: Map[ChannelId, IndexedSeq[Msg]] = (for {
      (id, meta) <- line.iterator
      (ch, sent) <- meta.lastSent.iterator
      recvMeta = line(ch.to)
      lo = recvMeta.lastReceived.getOrElse(ch, 0L)
      if lo < sent
    } yield ch -> rt.log.range(ch, lo, sent)).toMap

    // The modelled search runs over the whole checkpoint graph, so the
    // checkpoints collected before the failure are charged too.
    val nNodes = rt.store.collectedDurable + ckpts.valuesIterator.map(_.size).sum
    val lineAlgo = LineAlgoPerNodeMicros * nNodes
    val restart = stateLoadMicros(rt, line) + lineAlgo + replayPrepMicros(rt, replay)
    RecoveryPlan(line, replay, restart, invalid, lineAlgo)
  }

  /** Garbage collection for the logged protocols (Wang, Chung, Lin & Fuchs,
    * "Checkpoint space reclamation for uncoordinated checkpointing",
    * IEEE TPDS 1995). The recovery line over the checkpoints durable at
    * `now` only moves forward as more become durable, so no later plan can
    * use a checkpoint older than it, nor a logged message its receiver's
    * line checkpoint has already applied. Drops both; charges no virtual
    * time.
    */
  def collect(rt: ProtocolRuntime, now: Long): Unit = {
    val ckpts = rt.graph.instances.map(id => id -> rt.store.durable(id, now)).toMap
    val (line, _) = recoveryLine(ckpts)
    line.valuesIterator.foreach { meta =>
      rt.store.collectBelow(meta.id, meta.idx, now)
      meta.lastReceived.foreach { case (ch, seq) => rt.log.collectThrough(ch, seq) }
    }
  }
}
