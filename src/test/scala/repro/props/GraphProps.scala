package repro.props

import org.scalacheck.{Gen, Prop, Properties}
import repro.dataflow._
import repro.queries.PassThrough

/** ScalaCheck properties of graph routing and the event queue. */
object GraphProps extends Properties("Graph") {

  private def lin(p: Int) = Graph(
    Seq(OperatorSpec("a", () => new PassThrough, stateful = false, isSource = true),
      OperatorSpec("b", () => new PassThrough, stateful = true)),
    Seq(Edge("a", "b", HashPart, key = _.asInstanceOf[Long])), p)

  /** Every sender of `a` has a channel to subtask `t` of `b`. */
  private def everySenderReaches(g: Graph, t: Int): Boolean =
    (0 until g.parallelism).forall { s =>
      val i = g.wiring.index(InstanceId("a", s))
      val k = g.wiring.routes(i).head.outIdx(t)
      k >= 0 && g.wiring.outCh(i)(k).to == InstanceId("b", t)
    }

  property("hash routing is total and stable") =
    Prop.forAll(Gen.choose(1, 16), Gen.choose(Long.MinValue, Long.MaxValue)) { (p, k) =>
      val g = lin(p)
      val t = g.hashTarget(g.edges.head, k)
      t >= 0 && t < p && t == g.hashTarget(g.edges.head, k) && everySenderReaches(g, t)
    }

  property("hash routing spreads keys across instances") =
    Prop.forAll(Gen.choose(4, 12)) { p =>
      val g = lin(p)
      val targets = (1L to 500L).map(k => g.hashTarget(g.edges.head, k)).toSet
      targets.size == p
    }

  property("channels of an edge connect exactly the edge's endpoints") =
    Prop.forAll(Gen.choose(1, 8)) { p =>
      val g = lin(p)
      val chans = g.channelsOf(g.edges.head)
      chans.forall(c => c.from.op == "a" && c.to.op == "b") && chans.size == p * p
    }

  property("event queue pops in nondecreasing time order") =
    Prop.forAll(Gen.listOf(Gen.choose(0L, 10000L))) { times =>
      val q = new EventQueue
      times.foreach(t => q.schedule(t, InjectFailure))
      val popped = List.fill(times.size)(q.pop()._1)
      popped == popped.sorted
    }
}
