package repro.queries

import repro.dataflow._
import repro.nexmark._

/** Running tumbling-window bid count per bidder (NexMark Q12): emits the
  * updated count on every bid (the paper's "running window"); the sink
  * keeps the max per (bidder, window), which equals the final count
  * regardless of emission interleaving. Window state expires `slackMicros`
  * after the window closes.
  *
  * The state is an ordered map of windows, each a copy-on-write table of
  * bidder -> running count ([[CowWindows]]). A snapshot is O(1), and a bid
  * copies its window only on the first write after a snapshot; later bids
  * in the epoch count in place.
  */
final class Q12CountLogic(windowMicros: Long, slackMicros: Long) extends OperatorLogic {
  private val counts = new CowWindows[Long]
  private var watermark = 0L

  def onRecord(value: Any, fromOp: String, emit: Any => Unit): Unit = value match {
    case b: NxBid =>
      if (b.ts > watermark) {
        watermark = b.ts
        counts.expireBelow(math.max(0L, watermark - slackMicros) / windowMicros - 1)
      }
      val w = b.ts / windowMicros
      val inWindow = counts.write(w)
      val c = inWindow.getOrElse(b.bidder, 0L) + 1L
      inWindow.update(b.bidder, c)
      emit(Q12Out(b.bidder, w, c))
    case other => sys.error(s"Q12 got $other")
  }

  def snapshot(): Any = (counts.snapshot(), watermark)
  def restore(s: Any): Unit = {
    val (cs, wm) = s.asInstanceOf[(CowWindows.Snapshot[Long], Long)]
    counts.restore(cs); watermark = wm
  }
  def stateBytes: Long = counts.size * 40L + 16L
}

/** NexMark Q12 (paper §VI): windowed count over bids with minor shuffling. */
final case class Q12(slackMicros: Long = 20_000_000L) extends QueryDef {
  val name = "Q12"
  def includes: Set[String] = Set("bid")

  def graph(parallelism: Int): Graph = Graph(
    ops = Seq(
      OperatorSpec("src",   () => new PassThrough, stateful = false, isSource = true,
        serviceMicros = 2000L),
      OperatorSpec("count",
        () => new Q12CountLogic(NexmarkGen.WindowMicros, slackMicros),
        stateful = true, serviceMicros = 3000L),
      OperatorSpec("sink",
        () => new UpsertMaxSink(
          { case Q12Out(b, w, _) => (b, w); case x => x },
          { case Q12Out(_, _, c) => c; case _ => 0L }),
        stateful = false, isSink = true, serviceMicros = 300L),
    ),
    edges = Seq(
      Edge("src",   "count", HashPart, key = { case b: NxBid => b.bidder; case _ => 0L }),
      Edge("count", "sink",  ForwardPart),
    ),
    parallelism = parallelism,
  )

  def input(parallelism: Int, cfg: NexmarkConfig): SourceInput =
    NexmarkGen.input("src", parallelism, cfg.copy(include = includes))

  def sinkDigest(rt: Runtime): Map[Any, Long] = QueryDef.mergeUpserts(rt, "sink")
}
