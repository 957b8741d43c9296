package repro.props

import org.scalacheck.{Gen, Prop, Properties}
import repro.checkpoint._
import repro.dataflow.{ChannelId, InstanceId}

/** ScalaCheck properties of the recovery-line machinery over randomized
  * monotone checkpoint histories on a 3-operator chain a -> b -> c.
  */
object RollbackProps extends Properties("RollbackPropagation") {

  private val a = InstanceId("a", 0)
  private val b = InstanceId("b", 0)
  private val c = InstanceId("c", 0)
  private val ab = ChannelId(a, b)
  private val bc = ChannelId(b, c)

  /** The chain a -> b -> c, and its first hop alone. */
  private val chain = ChannelTables(IndexedSeq(a, b, c), Seq(ab, bc))
  private val pair = ChannelTables(IndexedSeq(a, b), Seq(ab))

  /** Monotone non-decreasing cut sequence starting at 0. */
  private val cuts: Gen[List[Long]] =
    Gen.listOfN(4, Gen.choose(0L, 40L)).map(l => l.sorted)

  property("returned line is consistent and rolls back minimally per instance") =
    Prop.forAll(cuts, cuts, cuts, cuts) { (aSent, bRecv, bSent, cRecv) =>
      val ckpts = Map(
        a -> (chain.meta(a, 0, Map(ab -> 0L), Map.empty) +: aSent.zipWithIndex.map {
          case (s, i) => chain.meta(a, i + 1, Map(ab -> s), Map.empty)
        }.toIndexedSeq),
        b -> (chain.meta(b, 0, Map(bc -> 0L), Map(ab -> 0L)) +:
          bRecv.zip(bSent).zipWithIndex.map { case ((r, s), i) =>
            chain.meta(b, i + 1, Map(bc -> s), Map(ab -> r))
          }.toIndexedSeq),
        c -> (chain.meta(c, 0, Map.empty, Map(bc -> 0L)) +: cRecv.zipWithIndex.map {
          case (r, i) => chain.meta(c, i + 1, Map.empty, Map(bc -> r))
        }.toIndexedSeq),
      )
      val g = new CheckpointGraph(ckpts, chain)
      val (line, rolled) = RollbackPropagation.recoveryLine(g)
      val consistent = g.isConsistent(line)
      val bounds = rolled.forall { case (id, n) => n >= 0 && n < ckpts(id).length }
      consistent && bounds
    }

  property("a no-orphan history keeps every latest checkpoint") =
    Prop.forAll(Gen.choose(0L, 50L)) { x =>
      // b checkpointed having received exactly what a had sent.
      val ckpts = Map(
        a -> IndexedSeq(pair.meta(a, 0, Map(ab -> 0L), Map.empty),
          pair.meta(a, 1, Map(ab -> x), Map.empty)),
        b -> IndexedSeq(pair.meta(b, 0, Map.empty, Map(ab -> 0L)),
          pair.meta(b, 1, Map.empty, Map(ab -> x))),
      )
      val (line, _) = RollbackPropagation.recoveryLine(new CheckpointGraph(ckpts, pair))
      line(a).idx == 1 && line(b).idx == 1
    }

  property("replay ranges implied by the line are never negative") =
    Prop.forAll(cuts, cuts) { (aSent, bRecv) =>
      val ckpts = Map(
        a -> (pair.meta(a, 0, Map(ab -> 0L), Map.empty) +: aSent.zipWithIndex.map {
          case (s, i) => pair.meta(a, i + 1, Map(ab -> s), Map.empty)
        }.toIndexedSeq),
        b -> (pair.meta(b, 0, Map.empty, Map(ab -> 0L)) +: bRecv.zipWithIndex.map {
          case (r, i) => pair.meta(b, i + 1, Map.empty, Map(ab -> r))
        }.toIndexedSeq),
      )
      val (line, _) = RollbackPropagation.recoveryLine(new CheckpointGraph(ckpts, pair))
      pair.receivedOn(line(b), ab) <= pair.sentOn(line(a), ab)
    }
}
