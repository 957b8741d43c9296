package repro.checkpoint

import repro.dataflow.{ChannelId, InstanceId}

/** The checkpoint graph of Wang et al. (paper §III-B, Fig. 4), the input
  * of the test-scope Algorithm 1 oracle ([[RollbackPropagation]]).
  *
  * Nodes are durable checkpoints; there is a directed edge
  * c(i,x) -> c(j,y) when
  *   - i == j and y == x + 1 (consecutive checkpoints of one instance), or
  *   - i != j and at least one orphan message exists: a message sent by i
  *     *after* c(i,x) was taken and processed by j *before* c(j,y) was
  *     taken. With contiguous per-channel sequence numbers this reduces to
  *     `c(j,y).lastReceived(ch) > c(i,x).lastSent(ch)` for some channel
  *     ch: i -> j.
  *
  * The vectors are read by channel through the raw channel `tables`, not
  * through the runtime's [[LineTopology]], so that this oracle shares no
  * index arithmetic with the code it checks.
  */
final class CheckpointGraph(val ckpts: Map[InstanceId, IndexedSeq[CkptMeta]],
    tables: ChannelTables) {

  /** Node handle: (instance, checkpoint index position in its list). */
  final case class Node(id: InstanceId, pos: Int) {
    def meta: CkptMeta = ckpts(id)(pos)
  }

  val nodes: IndexedSeq[Node] =
    ckpts.toIndexedSeq.sortBy(_._1.toString).flatMap { case (id, ms) =>
      ms.indices.map(Node(id, _))
    }

  /** Channels between different instances that both have checkpoints. */
  private val channels: IndexedSeq[ChannelId] = tables.channels
    .filter(ch => ch.from != ch.to && ckpts.contains(ch.from) && ckpts.contains(ch.to))
    .sortBy(_.toString)

  /** Outgoing edges of a node (computed on demand; graphs are small). */
  def edges(n: Node): IndexedSeq[Node] = {
    val own =
      if (n.pos + 1 < ckpts(n.id).length) IndexedSeq(Node(n.id, n.pos + 1)) else IndexedSeq.empty
    val cross = for {
      ch <- channels
      if ch.from == n.id
      sent = tables.sentOn(n.meta, ch)
      toCkpts = ckpts(ch.to)
      pos <- toCkpts.indices
      if tables.receivedOn(toCkpts(pos), ch) > sent
    } yield Node(ch.to, pos)
    own ++ cross.distinct
  }

  /** Nodes reachable from `start` via one or more edges (strict reachability). */
  def strictlyReachable(start: Node): Set[Node] = {
    val seen = scala.collection.mutable.Set.empty[Node]
    val stack = scala.collection.mutable.Stack[Node]()
    edges(start).foreach(stack.push)
    while (stack.nonEmpty) {
      val n = stack.pop()
      if (!seen(n)) {
        seen += n
        edges(n).foreach(m => if (!seen(m)) stack.push(m))
      }
    }
    seen.toSet
  }

  /** True when the set of checkpoints (one per instance) has no orphan
    * message between any pair — i.e. it is a consistent recovery line.
    */
  def isConsistent(line: Map[InstanceId, CkptMeta]): Boolean =
    channels.forall { ch =>
      (line.get(ch.from), line.get(ch.to)) match {
        case (Some(f), Some(t)) => tables.receivedOn(t, ch) <= tables.sentOn(f, ch)
        case _ => true
      }
    }
}
