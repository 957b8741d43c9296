package repro.nexmark

import repro.dataflow.SourceInput
import scala.collection.mutable
import scala.util.Random

/** Configuration of the NexMark-lite stream generator.
  *
  * Events are interleaved persons : auctions : bids at the classic NexMark
  * 1 : 3 : 46 proportions, timestamped at a constant `ratePerSec` over
  * `durationMicros`. `hotRatio` is the paper's hot-items knob: that share
  * of bids (auction & bidder) and auctions (seller) target a tiny hot key
  * set, so the instances owning those keys straggle.
  *
  * @param include which event classes to generate (queries consume subsets:
  *                Q1/Q12 bids, Q3/Q8 persons+auctions)
  */
final case class NexmarkConfig(
    ratePerSec: Double,
    durationMicros: Long,
    hotRatio: Double = 0.0,
    nHot: Int = 2,
    seed: Long = 7L,
    include: Set[String] = Set("person", "auction", "bid"),
)

/** Deterministic NexMark-lite event stream generator (the paper extends
  * the generator of Kalavri et al. [33]; we re-implement the same contract:
  * rate-controlled, proportioned, skewable, seeded).
  */
object NexmarkGen {
  val States: IndexedSeq[String] =
    IndexedSeq("OR", "ID", "CA", "NY", "WA", "TX", "FL", "MA", "GA")
  val Cities: IndexedSeq[String] =
    IndexedSeq("Portland", "Boise", "SF", "NYC", "Seattle", "Austin")
  val NumCategories = 20
  /** Q3's category predicate. */
  val Q3Category = 10
  /** Tumbling window size for Q8/Q12 (event time, micros). */
  val WindowMicros: Long = 10_000_000L

  /** Number of events `cfg` generates. */
  private def eventCount(cfg: NexmarkConfig): Long =
    math.max(1L, (cfg.ratePerSec * cfg.durationMicros / 1e6).toLong)

  /** The interleaved, timestamp-ordered event stream, materialized (the
    * input of the Spark references and the DuckDB oracle).
    */
  def events(cfg: NexmarkConfig): IndexedSeq[NxEvent] = {
    val out = IndexedSeq.newBuilder[NxEvent]
    generate(cfg)(out += _)
    out.result()
  }

  /** The same stream as the simulator's replayable input, split round-robin
    * across `parallelism` instances of source operator `op`.
    */
  def input(op: String, parallelism: Int, cfg: NexmarkConfig): SourceInput = {
    val b = new SourceInput.RoundRobin(op, parallelism, eventCount(cfg))
    generate(cfg)(e => b.add(e.ts, e))
    b.result()
  }

  // Event classes of the generator's cycle.
  private final val Person = 0
  private final val Auction = 1
  private final val Bid = 2
  // Their shares of the cycle: NexMark's 1 : 3 : 46.
  private final val PersonShare = 1
  private final val AuctionShare = 3
  private final val BidShare = 46

  /** Generate the stream in timestamp order, handing each event to `emit`. */
  private def generate(cfg: NexmarkConfig)(emit: NxEvent => Unit): Unit = {
    val rnd = PlainRandom(cfg.seed)
    val total = eventCount(cfg)
    val stepMicros = cfg.durationMicros.toDouble / total
    val hasPerson = cfg.include("person")
    val hasAuction = cfg.include("auction")
    val hasBid = cfg.include("bid")
    val hot = cfg.hotRatio > 0

    val cycle: Array[Int] = {
      val pat = mutable.ArrayBuffer.empty[Int]
      if (hasPerson)  pat ++= Seq.fill(PersonShare)(Person)
      if (hasAuction) pat ++= Seq.fill(AuctionShare)(Auction)
      if (hasBid)     pat ++= Seq.fill(BidShare)(Bid)
      require(pat.nonEmpty, "at least one event class must be included")
      // Spread classes through the cycle deterministically.
      new Random(cfg.seed ^ 0xbeef).shuffle(pat.toIndexedSeq).toArray
    }

    // Ids are handed out densely from 1, so the persons and auctions that
    // exist are exactly 1 until next - 1. A reference made before the
    // first one reserves id 1 for it.
    var nextPerson = 1L
    var nextAuction = 1L

    // When a referenced entity class is not part of the generated stream
    // (e.g. bid-only input for Q1/Q12), draw its ids from a virtual
    // universe that grows at the full 1:3:46 stream's proportions — the
    // references then have the same key distribution as in a full stream.
    val includedShare =
      (if (hasPerson) PersonShare else 0) +
        (if (hasAuction) AuctionShare else 0) +
        (if (hasBid) BidShare else 0)
    var i = 0L
    def virtUniverse(share: Int): Long =
      math.max(cfg.nHot.toLong, 1L + i * share / math.max(1, includedShare))

    def somePerson(): Long =
      if (hot && rnd.nextDouble() < cfg.hotRatio)
        1L + rnd.nextInt(cfg.nHot)
      else if (hasPerson) {
        if (nextPerson == 1L) nextPerson = 2L
        1L + rnd.nextInt((nextPerson - 1L).toInt)
      } else 1L + rnd.nextLong(virtUniverse(PersonShare))

    def someAuction(): Long =
      if (hot && rnd.nextDouble() < cfg.hotRatio)
        1L + rnd.nextInt(cfg.nHot)
      else if (hasAuction) {
        if (nextAuction == 1L) nextAuction = 2L
        1L + rnd.nextInt((nextAuction - 1L).toInt)
      } else 1L + rnd.nextLong(virtUniverse(AuctionShare))

    var c = 0
    while (i < total) {
      val ts = math.round(i * stepMicros)
      cycle(c) match {
        case Person =>
          val id = nextPerson; nextPerson += 1
          emit(NxPerson(id, s"p$id", Cities(rnd.nextInt(Cities.length)),
            States(rnd.nextInt(States.length)), ts))
        case Auction =>
          val id = nextAuction; nextAuction += 1
          emit(NxAuction(id, somePerson(), rnd.nextInt(NumCategories), ts, ts + 60_000_000L))
        case Bid =>
          emit(NxBid(someAuction(), somePerson(), 10.0 + rnd.nextInt(1000) / 10.0, ts))
      }
      c += 1
      if (c == cycle.length) c = 0
      i += 1
    }
  }
}
