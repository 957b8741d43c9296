package repro.props

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.propBoolean
import repro.dataflow.{InstanceId, SourceInput}
import repro.nexmark._
import repro.queries.{ReachConfig, Reachability}
import scala.util.Random

/** ScalaCheck properties of the input generators: the unsynchronized RNG
  * draws what `scala.util.Random` draws, and the columnar source input is
  * the materialized stream split round-robin.
  */
object GeneratorProps extends Properties("Generator") {

  /** One draw, applied to an RNG; the result is compared as a value. */
  private sealed trait Draw { def on(r: Random): Any }
  private final case class NextInt(bound: Int) extends Draw {
    def on(r: Random): Any = r.nextInt(bound)
  }
  private case object NextIntAny extends Draw { def on(r: Random): Any = r.nextInt() }
  private case object NextDouble extends Draw { def on(r: Random): Any = r.nextDouble() }
  private case object NextLongAny extends Draw { def on(r: Random): Any = r.nextLong() }
  private final case class NextLong(n: Long) extends Draw {
    def on(r: Random): Any = r.nextLong(n)
  }
  private final case class Shuffle(n: Int) extends Draw {
    def on(r: Random): Any = r.shuffle((0 until n).toVector)
  }

  private val draw: Gen[Draw] = Gen.frequency(
    4 -> Gen.oneOf(Gen.choose(1, 20), Gen.choose(1, Int.MaxValue)).map(NextInt),
    1 -> Gen.const(NextIntAny),
    3 -> Gen.const(NextDouble),
    1 -> Gen.const(NextLongAny),
    // Bounds above Int.MaxValue take scala.util.Random's halving path.
    3 -> Gen.oneOf(Gen.choose(1L, 1000L), Gen.choose(Int.MaxValue.toLong + 1, Long.MaxValue))
      .map(NextLong),
    1 -> Gen.choose(0, 60).map(Shuffle),
  )

  property("PlainRandom draws what scala.util.Random draws") =
    Prop.forAll(Gen.choose(Long.MinValue, Long.MaxValue), Gen.listOfN(200, draw)) {
      (seed, draws) =>
        val ref = new Random(seed)
        val plain = PlainRandom(seed)
        draws.forall(d => d.on(ref) == d.on(plain))
    }

  property("PlainRandom follows setSeed") =
    Prop.forAll(Gen.choose(Long.MinValue, Long.MaxValue), Gen.choose(Long.MinValue, Long.MaxValue)) {
      (s0, s1) =>
        val plain = PlainRandom(s0)
        plain.nextLong()
        plain.setSeed(s1)
        val ref = new Random(s1)
        (0 until 50).forall(_ => ref.nextLong() == plain.nextLong())
    }

  /** Every instance's columns equal the stream's events `i`, `i + p`, … */
  private def splitsRoundRobin[E](in: SourceInput, p: Int, evs: IndexedSeq[E])(ts: E => Long): Prop =
    (in.totalEvents == evs.size) :| "total" &&
      (0 until p).forall { i =>
        val want = evs.indices.filter(_ % p == i).map(evs)
        val id = InstanceId("src", i)
        in.values(id).toSeq == want && in.times(id).toSeq == want.map(ts) &&
          in.size(id) == want.size
      } :| "columns"

  private val includes: Gen[Set[String]] =
    Gen.atLeastOne("person", "auction", "bid").map(_.toSet)

  private val nexmarkConfig: Gen[NexmarkConfig] = for {
    rate <- Gen.choose(1.0, 2000.0)
    dur <- Gen.choose(100_000L, 3_000_000L)
    hot <- Gen.oneOf(Gen.const(0.0), Gen.choose(0.0, 0.6))
    nHot <- Gen.choose(1, 5)
    seed <- Gen.choose(Long.MinValue, Long.MaxValue)
    inc <- includes
  } yield NexmarkConfig(rate, dur, hotRatio = hot, nHot = nHot, seed = seed, include = inc)

  property("NexmarkGen.input is NexmarkGen.events split round-robin") =
    Prop.forAll(nexmarkConfig, Gen.choose(1, 12)) { (cfg, p) =>
      splitsRoundRobin(NexmarkGen.input("src", p, cfg), p, NexmarkGen.events(cfg))(_.ts)
    }

  property("Reachability.input is Reachability.events split round-robin") =
    Prop.forAll(Gen.choose(1.0, 2000.0), Gen.choose(100_000L, 3_000_000L), Gen.choose(1, 8),
        Gen.choose(Long.MinValue, Long.MaxValue)) { (rate, dur, p, seed) =>
      val q = Reachability(ReachConfig(nNodes = 200L, ratePerSec = 0, durationMicros = 0,
        seed = seed))
      val evs = q.events(q.cfg0.copy(ratePerSec = rate, durationMicros = dur))
      splitsRoundRobin(q.input(p, NexmarkConfig(rate, dur)), p, evs)(_.ts)
    }
}
