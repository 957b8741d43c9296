package repro.dataflow

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** How an edge routes an emitted record to the parallel instances of the
  * downstream operator.
  */
sealed trait Partitioning
/** Route by hash of the edge's key function (shuffling). */
case object HashPart      extends Partitioning
/** Route to the same subtask index (requires equal parallelism). */
case object ForwardPart   extends Partitioning
/** Route to every downstream instance (e.g. deletions in the cyclic query). */
case object BroadcastPart extends Partitioning

/** A logical edge of the dataflow graph.
  *
  * @param select  records for which this edge applies (models topic demux /
  *                fused filters — an emitted record only travels edges whose
  *                `select` accepts it)
  * @param key     extracts the routing key for [[HashPart]] edges
  */
final case class Edge(
    from: String,
    to: String,
    part: Partitioning,
    select: Any => Boolean = _ => true,
    key: Any => Long = _ => 0L,
)

/** Operator-level behaviour: state transition + snapshot/restore.
  *
  * Implementations must be deterministic functions of (state, record) and
  * keep state updates commutative across independent input channels — both
  * are required for exactly-once recovery to reproduce the failure-free
  * result (see DESIGN.md §6). A fresh logic object is created per instance
  * via [[OperatorSpec.logic]].
  */
trait OperatorLogic {
  /** Process one record; emit downstream records via `emit`. `fromOp` is
    * the upstream logical operator ("" for source input).
    */
  def onRecord(value: Any, fromOp: String, emit: Any => Unit): Unit
  /** Snapshot of operator state: an immutable value that no later
    * [[onRecord]] can change, because the [[StateStore]] keeps the
    * reference as the checkpoint's state. Logic that keeps its live state
    * in persistent maps returns that state itself, in O(1). Logic that
    * keeps it in copy-on-write tables also returns it in O(1), and ends
    * the tables' epoch, so its next write to a table the snapshot holds
    * copies that table first. Either way, a held snapshot is never written
    * again.
    */
  def snapshot(): Any
  /** Restore from a snapshot produced by [[snapshot]]. The snapshot is
    * never written again, so the logic may adopt it as its live state
    * without copying; one snapshot may be restored more than once.
    */
  def restore(s: Any): Unit
  /** Approximate serialized state size (drives checkpoint cost). */
  def stateBytes: Long
}

/** A logical operator of the dataflow graph.
  *
  * @param logic       factory for per-instance logic objects
  * @param stateful    whether the operator holds query state (stateful and
  *                    source operators are the checkpoint-counting set;
  *                    stateless ops snapshot only channel-position metadata)
  * @param isSource    sources read the replayable input instead of channels
  * @param isSink      sinks record outputs/latency; they snapshot metadata only
  * @param serviceMicros CPU time to process one record (excl. serde)
  */
final case class OperatorSpec(
    name: String,
    logic: () => OperatorLogic,
    stateful: Boolean,
    isSource: Boolean = false,
    isSink: Boolean = false,
    serviceMicros: Long = 100L,
) {
  /** Does this operator's checkpoints count toward Table III/IV totals? */
  def counted: Boolean = stateful || isSource
}

/** A streaming dataflow: logical operators + edges, all at the same
  * parallelism (one instance of every operator per worker, as in the
  * paper's testbed).
  */
final case class Graph(ops: Seq[OperatorSpec], edges: Seq[Edge], parallelism: Int) {
  require(parallelism > 0, "parallelism must be positive")
  private val byName: Map[String, OperatorSpec] = ops.map(o => o.name -> o).toMap
  require(byName.size == ops.size, "duplicate operator names")
  edges.foreach { e =>
    require(byName.contains(e.from), s"edge from unknown op ${e.from}")
    require(byName.contains(e.to), s"edge to unknown op ${e.to}")
  }

  def op(name: String): OperatorSpec = byName(name)

  def instances: Seq[InstanceId] =
    for (o <- ops; i <- 0 until parallelism) yield InstanceId(o.name, i)

  /** All physical channels created by an edge. */
  def channelsOf(e: Edge): Seq[ChannelId] = e.part match {
    case ForwardPart =>
      (0 until parallelism).map(i => ChannelId(InstanceId(e.from, i), InstanceId(e.to, i)))
    case _ =>
      for (i <- 0 until parallelism; j <- 0 until parallelism)
        yield ChannelId(InstanceId(e.from, i), InstanceId(e.to, j))
  }

  /** Dense channel tables, built once on first use. */
  lazy val wiring: Wiring = Wiring(this)

  /** Whether the logical graph contains a cycle (COOR refuses these). */
  def isCyclic: Boolean = {
    val adj = edges.groupBy(_.from).view.mapValues(_.map(_.to)).toMap
    val color = mutable.Map.empty[String, Int] // 0 white 1 grey 2 black
    def dfs(u: String): Boolean = {
      color(u) = 1
      val bad = adj.getOrElse(u, Nil).exists { v =>
        color.getOrElse(v, 0) match {
          case 1 => true
          case 0 => dfs(v)
          case _ => false
        }
      }
      color(u) = 2
      bad
    }
    ops.exists(o => color.getOrElse(o.name, 0) == 0 && dfs(o.name))
  }

  /** Target subtask of a record on a [[HashPart]] edge. */
  def hashTarget(e: Edge, value: Any): Int =
    math.floorMod(scala.util.hashing.byteswap64(e.key(value)), parallelism.toLong).toInt
}

/** One out-edge of a sender instance: `outIdx(j)` is the sender's index of
  * its channel to subtask `j` of `edge.to` (-1 where the edge has none).
  */
final class Route(val edge: Edge, val outIdx: Array[Int])

/** Dense channel tables of a [[Graph]].
  *
  * Instance `g` is `instances(g)`. Its input and output channels are
  * numbered in edge order, first occurrence first, so a channel that two
  * parallel edges both create gets one index, and the order is the one a
  * per-instance scan of the edges gives. Every channel is a single
  * [[ChannelId]] object, shared by the sender's and the receiver's tables.
  *
  * @param inCh    input channels of instance `g`
  * @param outCh   output channels of instance `g`
  * @param routes  out-edges of instance `g`, in edge order
  * @param peer    instance that out-channel `k` of instance `g` ends at
  * @param peerIn  index of that channel among the inputs of `peer(g)(k)`
  */
final class Wiring private (
    val instances: IndexedSeq[InstanceId],
    opPos: Map[String, Int],
    parallelism: Int,
    val inCh: Array[IndexedSeq[ChannelId]],
    val outCh: Array[IndexedSeq[ChannelId]],
    val routes: Array[Array[Route]],
    val peer: Array[Array[Int]],
    val peerIn: Array[Array[Int]],
) {
  /** Dense index of an instance: operator-major, as [[Graph.instances]]. */
  def index(id: InstanceId): Int = opPos(id.op) * parallelism + id.idx
}

object Wiring {
  /** Build the tables in one pass over each edge's channels: O(channels),
    * where a scan of every edge per instance would be O(instances x channels).
    */
  def apply(graph: Graph): Wiring = {
    val p = graph.parallelism
    val opPos = graph.ops.map(_.name).zipWithIndex.toMap
    val instances = graph.instances.toIndexedSeq
    val n = instances.size
    val ins  = Array.fill(n)(mutable.ArrayBuffer.empty[ChannelId])
    val outs = Array.fill(n)(mutable.ArrayBuffer.empty[ChannelId])
    val inPos  = mutable.HashMap.empty[ChannelId, Int]
    val outPos = mutable.HashMap.empty[ChannelId, Int]
    val routes = Array.fill(n)(mutable.ArrayBuffer.empty[Route])
    for (e <- graph.edges) {
      val fromBase = opPos(e.from) * p
      val toBase = opPos(e.to) * p
      val targets = Array.fill(p)(Array.fill(p)(-1))
      for (c <- graph.channelsOf(e)) {
        val out = outs(fromBase + c.from.idx)
        val k = outPos.getOrElseUpdate(c, { out += c; out.length - 1 })
        val ch = out(k)
        inPos.getOrElseUpdate(ch, {
          val in = ins(toBase + ch.to.idx)
          in += ch
          in.length - 1
        })
        targets(ch.from.idx)(ch.to.idx) = k
      }
      for (i <- 0 until p) routes(fromBase + i) += new Route(e, targets(i))
    }
    new Wiring(instances, opPos, p,
      inCh = ins.map(ArraySeq.from(_)), outCh = outs.map(ArraySeq.from(_)),
      routes = routes.map(_.toArray),
      peer = outs.map(_.map(ch => opPos(ch.to.op) * p + ch.to.idx).toArray),
      peerIn = outs.map(_.map(inPos).toArray))
  }
}
