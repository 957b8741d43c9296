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

  /** Workers reload their instances' states sequentially; workers are
    * parallel, so restart is the max across workers.
    */
  def stateLoadMicros(rt: ProtocolRuntime, line: Map[InstanceId, CkptMeta]): Long = {
    val perWorker = line.groupBy(_._1.idx).map { case (_, metas) =>
      metas.valuesIterator.map(m => SimConfig.uploadMicros(m.stateBytes)).sum
    }
    if (perWorker.isEmpty) 0L else perWorker.max
  }

  /** Replay-fetch/prep cost, max across (receiving) workers. */
  def replayPrepMicros(rt: ProtocolRuntime, replay: IndexedSeq[ChannelReplay]): Long = {
    val ids = rt.graph.wiring.instances
    val perWorker = replay.groupBy(r => ids(r.to).idx).map { case (_, chans) =>
      chans.iterator.map(r =>
        SimConfig.replayMicros(r.msgs.iterator.map(_.wireBytes.toLong).sum, r.msgs.size)).sum
    }
    if (perWorker.isEmpty) 0L else perWorker.max
  }

  /** The maximum consistent recovery line over `lists` (per instance in
    * `topo`'s order, the candidate checkpoints oldest first), as a worklist
    * fixpoint over the seq vectors: start from every instance's newest
    * checkpoint; while some channel i -> j of `topo` has
    * `line(j).lastReceived(kIn) > line(i).lastSent(kOut)` (an orphan
    * message), move j back to its newest checkpoint that does not orphan
    * it, and recheck j's receivers. Vectors grow along each instance's
    * list, so j never moves below the greatest consistent line: the result
    * is the line Algorithm 1 (rollback propagation over the checkpoint
    * graph) returns, at the cost of one pass per move.
    *
    * @return the line, as each instance's position in its list
    */
  def recoveryLine(topo: LineTopology, lists: IndexedSeq[IndexedSeq[CkptMeta]]): Array[Int] = {
    require(lists.forall(_.nonEmpty), "every instance needs at least its initial checkpoint")
    val n = lists.length
    val pos = lists.map(_.length - 1).toArray
    val queued = Array.fill(n)(true)
    val work = mutable.Queue.from(0 until n)
    while (work.nonEmpty) {
      val j = work.dequeue()
      queued(j) = false
      var p = pos(j)
      val kIn = topo.inIdx(j)
      val from = topo.sender(j)
      val kOut = topo.outIdx(j)
      var c = 0
      while (c < kIn.length) {
        val i = from(c)
        val sent = lists(i)(pos(i)).lastSent(kOut(c))
        while (lists(j)(p).lastReceived(kIn(c)) > sent) {
          require(p > 0, s"the recovery line fell past the oldest checkpoint of ${topo.ids(j)} — " +
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
    pos
  }

  /** Full UNC/CIC recovery plan: compute the recovery line over the durable
    * checkpoints, extract per-channel replay ranges
    * (receiver.lastReceived, sender.lastSent] from the message log, and
    * price the restart.
    */
  def planLogged(rt: ProtocolRuntime, topo: LineTopology, failTime: Long): RecoveryPlan = {
    val lists = durable(rt, topo, failTime)
    val pos = recoveryLine(topo, lists)
    val line = lists.indices.map(j => lists(j)(pos(j)))

    // Invalid checkpoints: counted checkpoints the algorithm rolled past —
    // they cannot be part of this (or any fresher) consistent recovery line.
    val invalid = lists.indices.iterator.map(j => lists(j).drop(pos(j) + 1).count(_.counted)).sum

    // In-flight channel state of the line, from the sender-side logs, in
    // the order of the channels' names, which resume schedules it in. The
    // names themselves are sorted: "j[10]" comes before "j[2]".
    val w = rt.graph.wiring
    val named = mutable.ArrayBuffer.empty[(String, ChannelReplay)]
    eachChannel(w, line) { (i, k, lo) =>
      val sent = line(i).lastSent(k)
      if (lo < sent) named += w.outCh(i)(k).toString ->
        ChannelReplay(w.peer(i)(k), w.peerIn(i)(k), rt.log(i, k).range(lo, sent))
    }
    val replay = named.sortBy(_._1).iterator.map(_._2).toIndexedSeq

    // The modelled search runs over the whole checkpoint graph, so the
    // checkpoints collected before the failure are charged too.
    val nNodes = rt.store.collectedDurable + lists.iterator.map(_.size).sum
    val lineAlgo = SimConfig.LineAlgoPerNodeMicros * nNodes
    val lineById = topo.ids.zip(line).toMap
    val restart = stateLoadMicros(rt, lineById) + lineAlgo + replayPrepMicros(rt, replay)
    RecoveryPlan(lineById, replay, restart, invalid, lineAlgo)
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
    val lists = durable(rt, topo, now)
    val pos = recoveryLine(topo, lists)
    val line = lists.indices.map(j => lists(j)(pos(j)))
    line.foreach(meta => rt.store.collectBelow(meta.id, meta.idx, now))
    eachChannel(rt.graph.wiring, line)((i, k, received) => rt.log(i, k).collectThrough(received))
  }

  /** Calls `f(i, k, received)` for out-channel `k` of every instance `i` of
    * `w`, where `received` is the channel's `lastReceived` in the receiver's
    * checkpoint on `line`: the last seq of it that the line has applied.
    */
  private def eachChannel(w: Wiring, line: IndexedSeq[CkptMeta])(f: (Int, Int, Long) => Unit)
      : Unit =
    for (i <- w.outCh.indices; k <- w.outCh(i).indices)
      f(i, k, line(w.peer(i)(k)).lastReceived(w.peerIn(i)(k)))

  /** Every instance's checkpoints durable at `at`, oldest first, in the
    * order of `topo`, which must be the one of the runtime's wiring.
    */
  private def durable(rt: ProtocolRuntime, topo: LineTopology, at: Long)
      : IndexedSeq[IndexedSeq[CkptMeta]] = {
    require(topo.ids == rt.graph.wiring.instances, "the line topology must be the runtime graph's")
    topo.ids.map(rt.store.durable(_, at))
  }
}

/** The channels the recovery-line search walks, which the dataflow's
  * topology fixes. For instance `j` (its index in `ids`) and its `c`-th
  * input channel from another instance: the channel's index among j's
  * inputs (`inIdx(j)(c)`), its sender (`sender(j)(c)`) and its index among
  * the sender's outputs (`outIdx(j)(c)`). Also the instances j sends to
  * (`receivers(j)`). Built once per run.
  */
final class LineTopology private (
    val ids: IndexedSeq[InstanceId],
    val inIdx: Array[Array[Int]],
    val sender: Array[Array[Int]],
    val outIdx: Array[Array[Int]],
    val receivers: Array[Array[Int]],
)

object LineTopology {
  /** The instances `ids` and their channel tables: `inCh(j)` and `outCh(j)`
    * list instance j's input and output channels, indexed like its
    * checkpoints' `lastReceived` and `lastSent`. Every channel's ends must
    * be among `ids`.
    */
  def apply(ids: IndexedSeq[InstanceId], inCh: IndexedSeq[IndexedSeq[ChannelId]],
      outCh: IndexedSeq[IndexedSeq[ChannelId]]): LineTopology = {
    val at = ids.iterator.zipWithIndex.toMap
    val outPos = mutable.HashMap.empty[ChannelId, Int]
    for (out <- outCh; k <- out.indices) outPos(out(k)) = k
    // Per receiver, its cross-instance inputs as (input index, sender, output index).
    val cross = ids.indices.map { j =>
      for (k <- inCh(j).indices; i = at(inCh(j)(k).from) if i != j)
        yield (k, i, outPos(inCh(j)(k)))
    }
    new LineTopology(ids,
      inIdx = cross.map(_.map(_._1).toArray).toArray,
      sender = cross.map(_.map(_._2).toArray).toArray,
      outIdx = cross.map(_.map(_._3).toArray).toArray,
      receivers = Array.tabulate(ids.length)(i => outCh(i).map(ch => at(ch.to)).filter(_ != i).toArray))
  }

  /** Every instance of `graph` and its wiring's channel tables. */
  def apply(graph: Graph): LineTopology = {
    val w = graph.wiring
    apply(w.instances, w.inCh.toIndexedSeq, w.outCh.toIndexedSeq)
  }
}
