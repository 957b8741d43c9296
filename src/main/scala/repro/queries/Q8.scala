package repro.queries

import repro.dataflow._
import repro.nexmark._

/** Running tumbling-window join for NexMark Q8: persons joined with
  * auctions they opened in the same (event-time) window. Processing is
  * triggered on record arrival (the paper's "running window") and window
  * state is cleaned `slackMicros` after the window closes, driven by the
  * max event timestamp seen at this instance.
  */
final class Q8JoinLogic(windowMicros: Long, slackMicros: Long) extends OperatorLogic {
  // window -> person id -> name / auction count
  private var persons  = Map.empty[Long, Map[Long, String]]
  private var auctions = Map.empty[Long, Map[Long, Long]]
  private var watermark = 0L

  private def window(ts: Long): Long = ts / windowMicros

  private def advance(ts: Long, emit: Any => Unit): Unit = {
    if (ts > watermark) {
      watermark = ts
      val expired = window(math.max(0L, watermark - slackMicros)) // windows < expired are closed
      persons = persons.removedAll(persons.keysIterator.filter(_ < expired - 1))
      auctions = auctions.removedAll(auctions.keysIterator.filter(_ < expired - 1))
    }
  }

  def onRecord(value: Any, fromOp: String, emit: Any => Unit): Unit = value match {
    case p: NxPerson =>
      advance(p.ts, emit)
      val w = window(p.ts)
      persons = persons.updated(w,
        persons.getOrElse(w, Map.empty[Long, String]).updated(p.id, p.name))
      val n = auctions.get(w).flatMap(_.get(p.id)).getOrElse(0L)
      var i = 0L
      while (i < n) { emit(Q8Out(p.id, p.name, w)); i += 1 }
    case a: NxAuction =>
      advance(a.ts, emit)
      val w = window(a.ts)
      val m = auctions.getOrElse(w, Map.empty[Long, Long])
      auctions = auctions.updated(w, m.updated(a.seller, m.getOrElse(a.seller, 0L) + 1L))
      persons.get(w).flatMap(_.get(a.seller)).foreach(nm => emit(Q8Out(a.seller, nm, w)))
    case other => sys.error(s"Q8 join got $other")
  }

  def snapshot(): Any = (persons, auctions, watermark)
  def restore(s: Any): Unit = {
    val (ps, as, wm) =
      s.asInstanceOf[(Map[Long, Map[Long, String]], Map[Long, Map[Long, Long]], Long)]
    persons = ps; auctions = as; watermark = wm
  }
  def stateBytes: Long =
    persons.valuesIterator.map(_.size.toLong * 32L).sum +
      auctions.valuesIterator.map(_.size.toLong * 24L).sum + 32L
}

/** NexMark Q8 (paper §VI): windowed join of persons with their auctions —
  * complex topology, shuffling, and windowing.
  */
final case class Q8(slackMicros: Long = 20_000_000L) extends QueryDef {
  val name = "Q8"
  def includes: Set[String] = Set("person", "auction")

  def graph(parallelism: Int): Graph = Graph(
    ops = Seq(
      OperatorSpec("src",  () => new PassThrough, stateful = false, isSource = true,
        serviceMicros = 2000L),
      OperatorSpec("winjoin",
        () => new Q8JoinLogic(NexmarkGen.WindowMicros, slackMicros),
        stateful = true, serviceMicros = 5000L),
      OperatorSpec("sink", () => new MultisetSink, stateful = false, isSink = true,
        serviceMicros = 300L),
    ),
    edges = Seq(
      Edge("src", "winjoin", HashPart, key = Q3.joinKey),
      Edge("winjoin", "sink", ForwardPart),
    ),
    parallelism = parallelism,
  )

  def input(parallelism: Int, cfg: NexmarkConfig): SourceInput =
    SourceInput.partitioned("src", parallelism,
      NexmarkGen.sourceEvents(NexmarkGen.events(cfg.copy(include = includes))))

  def sinkDigest(rt: Runtime): Map[Any, Long] = QueryDef.mergeMultisets(rt, "sink")
}
