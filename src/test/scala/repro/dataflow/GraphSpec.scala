package repro.dataflow

import org.scalatest.funsuite.AnyFunSuite
import repro.queries._

class GraphSpec extends AnyFunSuite {
  private def pass = () => new PassThrough

  private def lin(parallelism: Int) = Graph(
    Seq(
      OperatorSpec("a", pass, stateful = false, isSource = true),
      OperatorSpec("b", pass, stateful = true),
      OperatorSpec("c", pass, stateful = false, isSink = true),
    ),
    Seq(Edge("a", "b", HashPart, key = _.asInstanceOf[Long]), Edge("b", "c", ForwardPart)),
    parallelism)

  test("instances enumerate ops x parallelism") {
    assert(lin(3).instances.size == 9)
  }

  test("hash edges create full bipartite channels, forward edges one-to-one") {
    val g = lin(3)
    assert(g.channelsOf(g.edges.head).size == 9)
    assert(g.channelsOf(g.edges(1)).size == 3)
  }

  test("inChannels / outChannels are consistent") {
    val g = lin(2)
    val b0 = InstanceId("b", 0)
    val w = g.wiring
    assert(w.inCh(w.index(b0)).map(_.from.op).toSet == Set("a"))
    assert(w.inCh(w.index(b0)).size == 2)
    assert(w.outCh(w.index(b0)) == Seq(ChannelId(b0, InstanceId("c", 0))))
  }

  test("one-pass wiring equals a per-instance scan of the edges, parallel edges included") {
    val reach = Reachability(ReachConfig(100, 10, 1_000_000L)).graph(3)
    for (g <- Seq(lin(3), reach, Q3.graph(4))) {
      val w = g.wiring
      assert(w.instances == g.instances)
      for ((id, i) <- g.instances.zipWithIndex) {
        assert(w.index(id) == i)
        val in = g.edges.filter(_.to == id.op).flatMap(g.channelsOf).filter(_.to == id).distinct
        val out = g.edges.filter(_.from == id.op).flatMap(g.channelsOf).filter(_.from == id).distinct
        assert(w.inCh(i) == in && w.outCh(i) == out)
        for (k <- out.indices)
          assert(w.inCh(w.peer(i)(k))(w.peerIn(i)(k)) eq w.outCh(i)(k), "one object per channel")
        val outEdges = g.edges.filter(_.from == id.op)
        assert(w.routes(i).map(_.edge).toSeq == outEdges)
        for (r <- w.routes(i); t <- 0 until g.parallelism; k = r.outIdx(t) if k >= 0)
          assert(w.outCh(i)(k) == ChannelId(id, InstanceId(r.edge.to, t)))
      }
    }
  }

  /** The channel that `Runtime.applyRecord` sends on from subtask `from` of
    * `e.from` to subtask `to` of `e.to`, or None where the edge has none.
    */
  private def routed(g: Graph, e: Edge, from: Int, to: Int): Option[ChannelId] = {
    val i = g.wiring.index(InstanceId(e.from, from))
    val r = g.wiring.routes(i).find(_.edge == e).get
    Option.when(r.outIdx(to) >= 0)(g.wiring.outCh(i)(r.outIdx(to)))
  }

  test("hash routing is deterministic and in range") {
    val g = lin(7)
    val e = g.edges.head
    (1L to 100L).foreach { k =>
      val t = g.hashTarget(e, k)
      assert(t >= 0 && t < 7 && t == g.hashTarget(e, k))
      for (s <- 0 until 7)
        assert(routed(g, e, s, t).contains(ChannelId(InstanceId("a", s), InstanceId("b", t))),
          "every sender must have a channel to the hash target")
    }
  }

  test("broadcast routes to every instance") {
    val g = Graph(lin(4).ops, Seq(Edge("a", "b", BroadcastPart)), 4)
    assert((0 until 4).map(routed(g, g.edges.head, 1, _).map(_.to.idx)) == (0 until 4).map(Some(_)))
  }

  test("acyclic graph detected as such") {
    assert(!lin(2).isCyclic)
  }

  test("cyclic graph detected") {
    val g = Graph(
      Seq(OperatorSpec("a", pass, stateful = false, isSource = true),
        OperatorSpec("b", pass, stateful = true),
        OperatorSpec("c", pass, stateful = false)),
      Seq(Edge("a", "b", ForwardPart), Edge("b", "c", ForwardPart),
        Edge("c", "b", ForwardPart)),
      2)
    assert(g.isCyclic)
  }

  test("reachability query graph is cyclic; NexMark graphs are not") {
    val reach = Reachability(ReachConfig(100, 10, 1_000_000L))
    assert(reach.graph(2).isCyclic)
    Seq(Q1, Q3, Q8(), Q12()).foreach(q => assert(!q.graph(2).isCyclic, q.name))
  }

  test("duplicate op names rejected") {
    intercept[IllegalArgumentException] {
      Graph(Seq(OperatorSpec("a", pass, stateful = false),
        OperatorSpec("a", pass, stateful = false)), Nil, 1)
    }
  }

  test("edges to unknown ops rejected") {
    intercept[IllegalArgumentException] {
      Graph(Seq(OperatorSpec("a", pass, stateful = false)),
        Seq(Edge("a", "zz", ForwardPart)), 1)
    }
  }
}
