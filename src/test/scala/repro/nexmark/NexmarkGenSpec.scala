package repro.nexmark

import org.scalatest.funsuite.AnyFunSuite

class NexmarkGenSpec extends AnyFunSuite {
  private val base = NexmarkConfig(1000.0, 10_000_000L, seed = 3L)

  test("generator is deterministic in its config") {
    assert(NexmarkGen.events(base) == NexmarkGen.events(base))
    assert(NexmarkGen.events(base) != NexmarkGen.events(base.copy(seed = 4L)))
  }

  test("rate x duration controls event count") {
    assert(NexmarkGen.events(base).size == 10000)
    assert(NexmarkGen.events(base.copy(ratePerSec = 100.0)).size == 1000)
  }

  test("timestamps are sorted and span the duration") {
    val evs = NexmarkGen.events(base)
    assert(evs.map(_.ts) == evs.map(_.ts).sorted)
    assert(evs.last.ts <= base.durationMicros)
    assert(evs.last.ts > base.durationMicros * 9 / 10)
  }

  test("event class proportions approximate 1:3:46") {
    val evs = NexmarkGen.events(base.copy(ratePerSec = 5000.0))
    val (p, a, b) = NexmarkData.split(evs)
    assert(math.abs(p.size / 50000.0 - 1.0 / 50) < 0.01)
    assert(math.abs(a.size / 50000.0 - 3.0 / 50) < 0.01)
    assert(math.abs(b.size / 50000.0 - 46.0 / 50) < 0.01)
  }

  test("include filters event classes") {
    val evs = NexmarkGen.events(base.copy(include = Set("bid")))
    assert(evs.forall(_.isInstanceOf[NxBid]))
    val pa = NexmarkGen.events(base.copy(include = Set("person", "auction")))
    assert(pa.forall(e => e.isInstanceOf[NxPerson] || e.isInstanceOf[NxAuction]))
  }

  test("bids reference existing auctions; auctions reference existing persons") {
    val evs = NexmarkGen.events(base)
    val (ps, as, bs) = NexmarkData.split(evs)
    val personIds = ps.map(_.id).toSet
    val auctionIds = as.map(_.id).toSet
    // Hot ids (1..nHot) are always legal targets.
    val hot = (1L to base.nHot).toSet
    assert(as.forall(a => personIds(a.seller) || hot(a.seller)))
    assert(bs.forall(b => auctionIds(b.auction) || hot(b.auction)))
  }

  test("hot-item skew concentrates bid keys (paper's skewed setting)") {
    val uni = NexmarkGen.events(base.copy(ratePerSec = 3000.0))
    val hot = NexmarkGen.events(base.copy(ratePerSec = 3000.0, hotRatio = 0.3))
    def hotShare(evs: Seq[NxEvent]): Double = {
      val bids = evs.collect { case b: NxBid => b }
      bids.count(b => b.auction <= base.nHot).toDouble / bids.size
    }
    assert(hotShare(hot) > 0.28, s"expected >=30% hot bids, got ${hotShare(hot)}")
    assert(hotShare(uni) < 0.10)
  }

  test("event sizes model a compact binary encoding") {
    val evs = NexmarkGen.events(base)
    evs.foreach {
      case b: NxBid     => assert(b.sizeBytes == 32)
      case a: NxAuction => assert(a.sizeBytes == 36)
      case p: NxPerson  => assert(p.sizeBytes > 20 && p.sizeBytes < 64)
    }
  }
}
