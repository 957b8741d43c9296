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
    * channel i -> j of `topo` has `line(j).lastReceived(ch) > line(i).lastSent(ch)`
    * (an orphan message), move j back to its newest checkpoint that does
    * not orphan it, and recheck j's receivers. Vectors grow along each
    * instance's list, so j never moves below the greatest consistent line:
    * the result is the line Algorithm 1 (rollback propagation over the
    * checkpoint graph) returns, at the cost of one pass per move.
    *
    * @return (recovery line, number of checkpoints rolled past per instance)
    */
  def recoveryLine(topo: LineTopology, ckpts: Map[InstanceId, IndexedSeq[CkptMeta]])
      : (Map[InstanceId, CkptMeta], Map[InstanceId, Int]) = {
    val ids = topo.ids
    val lists = ids.map(ckpts).toArray
    require(lists.forall(_.nonEmpty), "every instance needs at least its initial checkpoint")
    val n = ids.length
    val pos = lists.map(_.length - 1)
    val queued = Array.fill(n)(true)
    val work = mutable.Queue.from(0 until n)
    while (work.nonEmpty) {
      val j = work.dequeue()
      queued(j) = false
      var p = pos(j)
      val chans = topo.inCh(j)
      var c = 0
      while (c < chans.length) {
        val ch = chans(c)
        val i = topo.inFrom(j)(c)
        val sent = lists(i)(pos(i)).lastSent.getOrElse(ch, 0L)
        while (lists(j)(p).lastReceived.getOrElse(ch, 0L) > sent) {
          require(p > 0, s"the recovery line fell past the oldest checkpoint of ${ids(j)} — " +
            "initial checkpoints must form a consistent line")
          p -= 1
        }
        c += 1
      }
      if (p < pos(j)) {
        pos(j) = p
        topo.receivers(j).foreach(k => if (!queued(k)) { queued(k) = true; work.enqueue(k) })
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
  def planLogged(rt: ProtocolRuntime, topo: LineTopology, failTime: Long): RecoveryPlan = {
    val ckpts = durable(rt, topo, failTime)
    val (line, rolledPast) = recoveryLine(topo, ckpts)

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
  def collect(rt: ProtocolRuntime, topo: LineTopology, now: Long): Unit = {
    val (line, _) = recoveryLine(topo, durable(rt, topo, now))
    line.valuesIterator.foreach { meta =>
      rt.store.collectBelow(meta.id, meta.idx, now)
      meta.lastReceived.foreach { case (ch, seq) => rt.log.collectThrough(ch, seq) }
    }
  }

  /** Every instance's checkpoints durable at `at`, oldest first. */
  private def durable(rt: ProtocolRuntime, topo: LineTopology, at: Long)
      : Map[InstanceId, IndexedSeq[CkptMeta]] =
    topo.ids.iterator.map(id => id -> rt.store.durable(id, at)).toMap
}

/** The channels the recovery-line search walks, which the dataflow's
  * topology fixes: for instance `j` (its index in `ids`), its input
  * channels from other instances (`inCh(j)`, sent by `inFrom(j)`), and the
  * instances it sends to (`receivers(j)`). Built once per run.
  */
final class LineTopology private (
    val ids: IndexedSeq[InstanceId],
    val inCh: Array[Array[ChannelId]],
    val inFrom: Array[Array[Int]],
    val receivers: Array[Array[Int]],
)

object LineTopology {
  /** The instances `ids` and every channel between two of them. */
  def apply(ids: IndexedSeq[InstanceId], channels: Iterable[ChannelId]): LineTopology = {
    val at = ids.iterator.zipWithIndex.toMap
    val cross = for (ch <- channels.toSeq; i <- at.get(ch.from); j <- at.get(ch.to) if j != i)
      yield (ch, i, j)
    val byReceiver = cross.groupBy(_._3)
    val bySender = cross.groupBy(_._2)
    def per[A: scala.reflect.ClassTag](groups: Map[Int, Seq[(ChannelId, Int, Int)]])(
        f: ((ChannelId, Int, Int)) => A): Array[Array[A]] =
      Array.tabulate(ids.length)(j => groups.getOrElse(j, Nil).map(f).toArray)
    new LineTopology(ids, per(byReceiver)(_._1), per(byReceiver)(_._2), per(bySender)(_._3))
  }

  /** Every instance of `graph` and every channel of its wiring. */
  def apply(graph: Graph): LineTopology =
    apply(graph.wiring.instances, graph.wiring.outCh.flatMap(_.iterator))
}
