package repro.queries

import repro.dataflow._
import repro.nexmark.{NexmarkConfig, PlainRandom}
import scala.collection.mutable

/** Events and records of the cyclic reachability query (paper §VI, Fig. 6 —
  * adapted from FFP's on-the-fly progress detection query).
  */
object Reach {
  sealed trait Ev extends Sized { def ts: Long }
  final case class AddLink(u: Long, v: Long, ts: Long)            extends Ev { def sizeBytes = 24 }
  final case class AddSource(id: Long, node: Long, ts: Long)      extends Ev { def sizeBytes = 24 }
  final case class DelLink(u: Long, v: Long, ts: Long)            extends Ev { def sizeBytes = 24 }
  final case class DelSource(id: Long, ts: Long)                  extends Ev { def sizeBytes = 16 }

  /** A reachability fact: source `id` reaches `node` along `path`. */
  final case class SourceFact(id: Long, node: Long, path: Vector[Long]) extends Sized {
    def sizeBytes: Int = 16 + 8 * path.length
  }
  /** A joined (fact, link) candidate extension. */
  final case class Pair(fact: SourceFact, u: Long, v: Long) extends Sized {
    def sizeBytes: Int = fact.sizeBytes + 16
  }

  def isDeletion(v: Any): Boolean = v match {
    case _: DelLink | _: DelSource => true
    case _                         => false
  }
}

/** The stateful join of the reachability query: links keyed by start node,
  * facts keyed by their frontier node; deletions arrive broadcast and
  * retract the link/origin plus every derived fact that used it.
  */
final class ReachJoinLogic extends OperatorLogic {
  import Reach._
  private var links = Map.empty[Long, Set[Long]]
  private var facts = Map.empty[Long, Set[SourceFact]]

  private def addFact(f: SourceFact, emit: Any => Unit): Unit = {
    val existing = facts.getOrElse(f.node, Set.empty)
    if (!existing(f)) {
      facts = facts.updated(f.node, existing + f)
      links.getOrElse(f.node, Set.empty).foreach(v => emit(Pair(f, f.node, v)))
    }
  }

  def onRecord(value: Any, fromOp: String, emit: Any => Unit): Unit = value match {
    case AddLink(u, v, _) =>
      val cur = links.getOrElse(u, Set.empty)
      if (!cur(v)) {
        links = links.updated(u, cur + v)
        facts.getOrElse(u, Set.empty).foreach(f => emit(Pair(f, u, v)))
      }
    case AddSource(id, node, _) => addFact(SourceFact(id, node, Vector(node)), emit)
    case f: SourceFact          => addFact(f, emit)
    case DelLink(u, v, _) =>
      links = links.updatedWith(u)(_.map(_ - v).filter(_.nonEmpty))
      // Retract every derived fact whose path traverses (u, v).
      retract(f => traverses(f.path, u, v))
    case DelSource(id, _) => retract(_.id == id)
    case other => sys.error(s"reach join got $other")
  }

  /** Whether `path` steps from `u` straight to `v`. It runs for every fact
    * of every join instance on each broadcast delete, so it allocates
    * nothing.
    */
  private def traverses(path: Vector[Long], u: Long, v: Long): Boolean = {
    var i = 1
    while (i < path.length && !(path(i - 1) == u && path(i) == v)) i += 1
    i < path.length
  }

  /** Drops every fact matching `p`, replacing only the sets that lose one. */
  private def retract(p: SourceFact => Boolean): Unit = {
    var kept = facts
    facts.foreachEntry { (n, fs) =>
      val rest = fs.filterNot(p)
      if (rest.size < fs.size) kept = if (rest.isEmpty) kept - n else kept.updated(n, rest)
    }
    facts = kept
  }

  def snapshot(): Any = (links, facts)
  def restore(s: Any): Unit = {
    val (ls, fs) = s.asInstanceOf[(Map[Long, Set[Long]], Map[Long, Set[SourceFact]])]
    links = ls; facts = fs
  }
  def stateBytes: Long =
    links.valuesIterator.map(_.size.toLong * 16L).sum +
      facts.valuesIterator.flatMap(_.iterator).map(_.sizeBytes.toLong + 16L).sum

  /** All live facts (tests compare against the fixpoint reference). */
  def allFacts: Set[Reach.SourceFact] = facts.valuesIterator.flatten.toSet
}

/** Generator configuration for the cyclic query (paper §VII: 60 % add
  * link, 15 % add source, 20 % delete link, 5 % delete source over a
  * static node set).
  */
final case class ReachConfig(
    nNodes: Long,
    ratePerSec: Double,
    durationMicros: Long,
    pAddLink: Double = 0.60,
    pAddSource: Double = 0.15,
    pDelLink: Double = 0.20,
    pDelSource: Double = 0.05,
    seed: Long = 11L,
)

/** The cyclic reachability query: src -> join -> select -> project with a
  * feedback edge project -> join. COOR cannot run it (marker deadlock);
  * the Runtime asserts this via `Graph.isCyclic`.
  */
final case class Reachability(cfg0: ReachConfig) extends QueryDef {
  import Reach._
  val name = "REACH"
  def includes: Set[String] = Set("reach")

  def graph(parallelism: Int): Graph = Graph(
    ops = Seq(
      OperatorSpec("src",     () => new PassThrough,   stateful = false, isSource = true,
        serviceMicros = 1500L),
      OperatorSpec("join",    () => new ReachJoinLogic, stateful = true, serviceMicros = 3000L),
      OperatorSpec("select",  () => new FilterMap({
        case p: Pair if !p.fact.path.contains(p.v) && p.fact.path.length < Reachability.MaxPathLen =>
          Some(p)
        case _ => None
      }), stateful = false, serviceMicros = 800L),
      OperatorSpec("project", () => new FilterMap({
        case Pair(f, _, v) => Some(SourceFact(f.id, v, f.path :+ v))
        case _             => None
      }), stateful = false, serviceMicros = 800L),
      OperatorSpec("sink",    () => new MultisetSink,  stateful = false, isSink = true,
        serviceMicros = 300L),
    ),
    edges = Seq(
      Edge("src", "join", HashPart,
        select = v => !isDeletion(v),
        key = { case AddLink(u, _, _) => u; case AddSource(_, n, _) => n; case _ => 0L }),
      Edge("src", "join", BroadcastPart, select = isDeletion),
      Edge("join", "select", ForwardPart),
      Edge("select", "project", ForwardPart),
      Edge("project", "join", HashPart, key = { case f: SourceFact => f.node; case _ => 0L }),
      Edge("project", "sink", ForwardPart),
    ),
    parallelism = parallelism,
  )

  /** Number of events `cfg` generates. */
  private def eventCount(cfg: ReachConfig): Long =
    math.max(1L, (cfg.ratePerSec * cfg.durationMicros / 1e6).toLong)

  /** Deterministic event stream; deletions always reference live entities. */
  def events(cfg: ReachConfig = cfg0): IndexedSeq[Ev] = {
    val out = IndexedSeq.newBuilder[Ev]
    generate(cfg)(out += _)
    out.result()
  }

  /** Generate the stream in timestamp order, handing each event to `emit`. */
  private def generate(cfg: ReachConfig)(emit: Ev => Unit): Unit = {
    val rnd = PlainRandom(cfg.seed)
    val total = eventCount(cfg)
    val step = cfg.durationMicros.toDouble / total
    val liveLinks = mutable.ArrayBuffer.empty[(Long, Long)]
    val liveSources = mutable.ArrayBuffer.empty[Long]
    var nextId = 1L
    var i = 0L
    while (i < total) {
      val ts = math.round(i * step)
      val r = rnd.nextDouble()
      if (r < cfg.pAddLink || (liveLinks.isEmpty && liveSources.isEmpty)) {
        val u = 1L + rnd.nextLong(cfg.nNodes); val v = 1L + rnd.nextLong(cfg.nNodes)
        liveLinks += ((u, v)); emit(AddLink(u, v, ts))
      } else if (r < cfg.pAddLink + cfg.pAddSource) {
        val id = nextId; nextId += 1
        liveSources += id
        emit(AddSource(id, 1L + rnd.nextLong(cfg.nNodes), ts))
      } else if (r < cfg.pAddLink + cfg.pAddSource + cfg.pDelLink && liveLinks.nonEmpty) {
        val k = rnd.nextInt(liveLinks.length)
        val (u, v) = liveLinks.remove(k)
        emit(DelLink(u, v, ts))
      } else if (liveSources.nonEmpty) {
        val k = rnd.nextInt(liveSources.length)
        emit(DelSource(liveSources.remove(k), ts))
      } else {
        val u = 1L + rnd.nextLong(cfg.nNodes); val v = 1L + rnd.nextLong(cfg.nNodes)
        liveLinks += ((u, v)); emit(AddLink(u, v, ts))
      }
      i += 1
    }
  }

  def input(parallelism: Int, nxCfg: NexmarkConfig): SourceInput = {
    val cfg = cfg0.copy(ratePerSec = nxCfg.ratePerSec, durationMicros = nxCfg.durationMicros)
    val b = new SourceInput.RoundRobin("src", parallelism, eventCount(cfg))
    generate(cfg)(e => b.add(e.ts, e))
    b.result()
  }

  def sinkDigest(rt: Runtime): Map[Any, Long] = QueryDef.mergeMultisets(rt, "sink")

  /** Live join facts merged across instances (state-level answer). */
  def joinFacts(rt: Runtime): Set[SourceFact] =
    rt.allInstances.filter(_.id.op == "join")
      .flatMap(_.logic.asInstanceOf[ReachJoinLogic].allFacts).toSet
}

object Reachability {
  import Reach._

  /** Hard bound on path length (FFP-style progress bound); keeps the
    * recursive amplification finite on dense temporal graphs.
    */
  val MaxPathLen = 24

  /** Delete-free reference: every simple path from a live origin over the
    * final link set, up to [[MaxPathLen]] nodes. Returns the SourceFact
    * set the join should converge to.
    */
  def fixpoint(links: Set[(Long, Long)], origins: Map[Long, Long]): Set[SourceFact] = {
    val adj = links.groupBy(_._1).view.mapValues(_.map(_._2)).toMap
    val out = mutable.Set.empty[SourceFact]
    def dfs(id: Long, node: Long, path: Vector[Long]): Unit = {
      out += SourceFact(id, node, path)
      if (path.length < MaxPathLen)
        adj.getOrElse(node, Set.empty).foreach { v =>
          if (!path.contains(v)) dfs(id, v, path :+ v)
        }
    }
    origins.foreach { case (id, n) => dfs(id, n, Vector(n)) }
    out.toSet
  }
}
