package repro.queries

import repro.dataflow._
import repro.nexmark._

/** Incremental symmetric join state for NexMark Q3: persons (filtered to
  * OR/ID/CA) joined with auctions (filtered to category 10) on
  * `auction.seller = person.id`. Emits each matching pair exactly once, on
  * arrival of the second side — the multiset of emissions is independent of
  * arrival order, which recovery relies on.
  */
final class Q3JoinLogic extends OperatorLogic {
  private var persons  = Map.empty[Long, NxPerson]
  private var auctions = Map.empty[Long, List[Long]] // seller -> auction ids

  def onRecord(value: Any, fromOp: String, emit: Any => Unit): Unit = value match {
    case p: NxPerson =>
      persons = persons.updated(p.id, p)
      auctions.getOrElse(p.id, Nil).foreach(aid => emit(Q3Out(p.name, p.city, p.state, aid)))
    case a: NxAuction =>
      auctions = auctions.updated(a.seller, a.id :: auctions.getOrElse(a.seller, Nil))
      persons.get(a.seller).foreach(p => emit(Q3Out(p.name, p.city, p.state, a.id)))
    case other => sys.error(s"Q3 join got $other")
  }

  def snapshot(): Any = (persons, auctions)
  def restore(s: Any): Unit = {
    val (ps, as) = s.asInstanceOf[(Map[Long, NxPerson], Map[Long, List[Long]])]
    persons = ps; auctions = as
  }
  def stateBytes: Long =
    persons.size.toLong * 64L + auctions.valuesIterator.map(_.size.toLong * 16L + 16L).sum
}

/** NexMark Q3 (paper §VI): filter -> incremental stateful join with a
  * complex topology and shuffling between operators.
  */
object Q3 extends QueryDef {
  val name = "Q3"
  def includes: Set[String] = Set("person", "auction")

  private val filterStates = Set("OR", "ID", "CA")

  private def filterLogic() = new FilterMap({
    case p: NxPerson if filterStates(p.state)                  => Some(p)
    case a: NxAuction if a.category == NexmarkGen.Q3Category   => Some(a)
    case _                                                     => None
  })

  /** Join key: person id / auction seller. */
  val joinKey: Any => Long = {
    case p: NxPerson  => p.id
    case a: NxAuction => a.seller
    case _            => 0L
  }

  def graph(parallelism: Int): Graph = Graph(
    ops = Seq(
      OperatorSpec("src",    () => new PassThrough,  stateful = false, isSource = true,
        serviceMicros = 2000L),
      OperatorSpec("filter", () => filterLogic(),    stateful = false, serviceMicros = 800L),
      OperatorSpec("join",   () => new Q3JoinLogic,  stateful = true,  serviceMicros = 5000L),
      OperatorSpec("sink",   () => new MultisetSink, stateful = false, isSink = true,
        serviceMicros = 300L),
    ),
    edges = Seq(
      Edge("src",    "filter", ForwardPart),
      Edge("filter", "join",   HashPart, key = joinKey),
      Edge("join",   "sink",   ForwardPart),
    ),
    parallelism = parallelism,
  )

  def input(parallelism: Int, cfg: NexmarkConfig): SourceInput =
    NexmarkGen.input("src", parallelism, cfg.copy(include = includes))

  def sinkDigest(rt: Runtime): Map[Any, Long] = QueryDef.mergeMultisets(rt, "sink")
}
