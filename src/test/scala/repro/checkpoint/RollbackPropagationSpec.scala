package repro.checkpoint

import org.scalatest.funsuite.AnyFunSuite
import repro.dataflow.{ChannelId, InstanceId}

/** Unit tests of the checkpoint graph + rollback propagation, including
  * the paper's Fig. 4 example and the Fig. 5 domino-effect scenario.
  */
class RollbackPropagationSpec extends AnyFunSuite {

  private def inst(i: Int) = InstanceId(s"o$i", 0)
  private def ch(i: Int, j: Int) = ChannelId(inst(i), inst(j))

  /** One checkpoint's seq vectors, keyed by channel. */
  private def ckpt(sent: Map[ChannelId, Long],
      recv: Map[ChannelId, Long]): (Map[ChannelId, Long], Map[ChannelId, Long]) = (sent, recv)

  /** The checkpoint graph of a hand-written history. */
  private def graph(vectors: Map[InstanceId, Seq[(Map[ChannelId, Long], Map[ChannelId, Long])]])
      : (CheckpointGraph, ChannelTables) = {
    val (tables, ckpts) = ChannelTables.history(vectors)
    (new CheckpointGraph(ckpts, tables), tables)
  }

  test("latest checkpoints form the line when there are no orphans") {
    // o1 -> o2; o1 sent 10 by ckpt1; o2 received 10 by ckpt1.
    val ckpts = Map(
      inst(1) -> IndexedSeq(ckpt(Map(ch(1, 2) -> 0L), Map.empty),
        ckpt(Map(ch(1, 2) -> 10L), Map.empty)),
      inst(2) -> IndexedSeq(ckpt(Map.empty, Map(ch(1, 2) -> 0L)),
        ckpt(Map.empty, Map(ch(1, 2) -> 10L))),
    )
    val (line, rolled) = RollbackPropagation.recoveryLine(graph(ckpts)._1)
    assert(line(inst(1)).idx == 1 && line(inst(2)).idx == 1)
    assert(rolled.values.forall(_ == 0))
  }

  test("orphan message rolls the receiver back (paper Fig. 2b)") {
    // o1's latest ckpt has sent=5; o2's latest received=8 => orphans 6..8.
    val ckpts = Map(
      inst(1) -> IndexedSeq(ckpt(Map(ch(1, 2) -> 0L), Map.empty),
        ckpt(Map(ch(1, 2) -> 5L), Map.empty)),
      inst(2) -> IndexedSeq(ckpt(Map.empty, Map(ch(1, 2) -> 0L)),
        ckpt(Map.empty, Map(ch(1, 2) -> 4L)),
        ckpt(Map.empty, Map(ch(1, 2) -> 8L))),
    )
    val (line, _) = RollbackPropagation.recoveryLine(graph(ckpts)._1)
    assert(line(inst(1)).idx == 1)
    assert(line(inst(2)).idx == 1, "o2 must fall back to the ckpt with recv<=5")
  }

  test("in-flight (non-orphan) messages do not invalidate the line") {
    // o1 sent 10, o2 only received 6: messages 7..10 are in-flight, fine.
    val ckpts = Map(
      inst(1) -> IndexedSeq(ckpt(Map(ch(1, 2) -> 0L), Map.empty),
        ckpt(Map(ch(1, 2) -> 10L), Map.empty)),
      inst(2) -> IndexedSeq(ckpt(Map.empty, Map(ch(1, 2) -> 0L)),
        ckpt(Map.empty, Map(ch(1, 2) -> 6L))),
    )
    val (g, tables) = graph(ckpts)
    val (line, _) = RollbackPropagation.recoveryLine(g)
    assert(line(inst(1)).idx == 1 && line(inst(2)).idx == 1)
    assert(g.isConsistent(line))
  }

  test("cascading rollback across three operators") {
    // Chain o1 -> o2 -> o3; each receiver checkpointed after consuming
    // messages its upstream sent post-checkpoint.
    val ckpts = Map(
      inst(1) -> IndexedSeq(ckpt(Map(ch(1, 2) -> 0L), Map.empty),
        ckpt(Map(ch(1, 2) -> 5L), Map.empty)),
      inst(2) -> IndexedSeq(
        ckpt(Map(ch(2, 3) -> 0L), Map(ch(1, 2) -> 0L)),
        ckpt(Map(ch(2, 3) -> 3L), Map(ch(1, 2) -> 4L)),
        ckpt(Map(ch(2, 3) -> 9L), Map(ch(1, 2) -> 8L))), // orphan from o1
      inst(3) -> IndexedSeq(
        ckpt(Map.empty, Map(ch(2, 3) -> 0L)),
        ckpt(Map.empty, Map(ch(2, 3) -> 7L))), // depends on o2's rolled-back sends
    )
    val (line, _) = RollbackPropagation.recoveryLine(graph(ckpts)._1)
    assert(line(inst(1)).idx == 1)
    assert(line(inst(2)).idx == 1)
    assert(line(inst(3)).idx == 0, "o3 received 7 > o2@1.sent=3 => rolls to initial")
  }

  test("domino effect on a cycle unwinds to the initial line (paper Fig. 5)") {
    // o1 -> o2 -> o1 cycle where every checkpoint has an orphan w.r.t. the
    // other operator's previous checkpoint.
    val ckpts = Map(
      inst(1) -> IndexedSeq(
        ckpt(Map(ch(1, 2) -> 0L), Map(ch(2, 1) -> 0L)),
        ckpt(Map(ch(1, 2) -> 2L), Map(ch(2, 1) -> 1L)),
        ckpt(Map(ch(1, 2) -> 4L), Map(ch(2, 1) -> 3L))),
      inst(2) -> IndexedSeq(
        ckpt(Map(ch(2, 1) -> 0L), Map(ch(1, 2) -> 0L)),
        ckpt(Map(ch(2, 1) -> 2L), Map(ch(1, 2) -> 3L)),
        ckpt(Map(ch(2, 1) -> 4L), Map(ch(1, 2) -> 5L))),
    )
    val (line, rolled) = RollbackPropagation.recoveryLine(graph(ckpts)._1)
    assert(line(inst(1)).idx == 0 && line(inst(2)).idx == 0,
      s"domino should unwind to scratch, got ${line.view.mapValues(_.idx).toMap}")
    assert(rolled.values.sum == 4)
  }

  test("returned line is always consistent on randomized histories") {
    val rnd = new scala.util.Random(99)
    (1 to 50).foreach { _ =>
      // Random two-operator history: o1 sends a monotone stream to o2 and
      // both checkpoint at random cut points of the stream.
      val cuts1 = (1 to 3).map(_ => rnd.nextInt(50).toLong).sorted
      val cuts2 = (1 to 3).map(_ => rnd.nextInt(50).toLong).sorted
      val ckpts = Map(
        inst(1) -> (0L +: cuts1).map(c => ckpt(Map(ch(1, 2) -> c), Map.empty)),
        inst(2) -> (0L +: cuts2).map(c => ckpt(Map.empty, Map(ch(1, 2) -> c))),
      )
      val (g, tables) = graph(ckpts)
      val (line, _) = RollbackPropagation.recoveryLine(g)
      assert(g.isConsistent(line))
      assert(tables.receivedOn(line(inst(2)), ch(1, 2)) <= tables.sentOn(line(inst(1)), ch(1, 2)))
    }
  }
}
