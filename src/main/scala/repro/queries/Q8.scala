package repro.queries

import repro.dataflow._
import repro.nexmark._

/** Running tumbling-window join for NexMark Q8: persons joined with
  * auctions they opened in the same (event-time) window. Processing is
  * triggered on record arrival (the paper's "running window") and window
  * state is cleaned `slackMicros` after the window closes, driven by the
  * max event timestamp seen at this instance.
  *
  * Both sides are ordered maps of windows, each a copy-on-write table
  * ([[CowWindows]]): person id -> name, and seller -> auctions opened. A
  * snapshot is O(1), and a record copies its window only on the first
  * write after a snapshot.
  */
final class Q8JoinLogic(windowMicros: Long, slackMicros: Long) extends OperatorLogic {
  private val persons  = new CowWindows[String]
  private val auctions = new CowWindows[Long]
  private var watermark = 0L

  private def window(ts: Long): Long = ts / windowMicros

  private def advance(ts: Long): Unit =
    if (ts > watermark) {
      watermark = ts
      val live = window(math.max(0L, watermark - slackMicros)) - 1 // older windows are closed
      persons.expireBelow(live)
      auctions.expireBelow(live)
    }

  def onRecord(value: Any, fromOp: String, emit: Any => Unit): Unit = value match {
    case p: NxPerson =>
      advance(p.ts)
      val w = window(p.ts)
      persons.write(w).update(p.id, p.name)
      val opened = auctions.read(w)
      val n = if (opened == null) 0L else opened.getOrElse(p.id, 0L)
      var i = 0L
      while (i < n) { emit(Q8Out(p.id, p.name, w)); i += 1 }
    case a: NxAuction =>
      advance(a.ts)
      val w = window(a.ts)
      val opened = auctions.write(w)
      opened.update(a.seller, opened.getOrElse(a.seller, 0L) + 1L)
      val names = persons.read(w)
      if (names != null) {
        val name = names.getOrNull(a.seller)
        if (name != null) emit(Q8Out(a.seller, name, w))
      }
    case other => sys.error(s"Q8 join got $other")
  }

  def snapshot(): Any = (persons.snapshot(), auctions.snapshot(), watermark)
  def restore(s: Any): Unit = {
    val (ps, as, wm) =
      s.asInstanceOf[(CowWindows.Snapshot[String], CowWindows.Snapshot[Long], Long)]
    persons.restore(ps); auctions.restore(as); watermark = wm
  }
  def stateBytes: Long = persons.size * 32L + auctions.size * 24L + 32L
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
    NexmarkGen.input("src", parallelism, cfg.copy(include = includes))

  def sinkDigest(rt: Runtime): Map[Any, Long] = QueryDef.mergeMultisets(rt, "sink")
}
