package repro.props

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.propBoolean
import repro.checkpoint._
import repro.dataflow.{ChannelId, InstanceId}

/** The recovery-line fixpoint against Algorithm 1 (rollback propagation over
  * the checkpoint graph, the test-scope oracle) on random histories: up to
  * six instances of a few operators, channels in both directions between
  * a pair (so cycles of every length), and duplicate edges that collapse
  * into one channel as `Graph.wiring` collapses parallel edges.
  */
object RecoveryLineProps extends Properties("RecoveryLine") {

  /** Per-instance checkpoint lists: an all-zero initial checkpoint, then
    * seq vectors that never decrease along the list.
    */
  private val histories: Gen[Map[InstanceId, IndexedSeq[CkptMeta]]] = for {
    n <- Gen.choose(2, 6)
    ids = (0 until n).map(i => InstanceId(s"op${i % 3}", i / 3))
    edges <- Gen.listOf(for {
      i <- Gen.choose(0, n - 1)
      j <- Gen.choose(0, n - 2).map(j => if (j >= i) j + 1 else j)
    } yield ChannelId(ids(i), ids(j)))
    chans = edges.distinct
    lengths <- Gen.listOfN(n, Gen.choose(1, 6))
    len = ids.zip(lengths).toMap
    cuts = (k: Int) => Gen.listOfN(k, Gen.choose(0L, 30L)).map(0L +: _.sorted)
    sent <- Gen.sequence[List[List[Long]], List[Long]](chans.map(ch => cuts(len(ch.from) - 1)))
    recv <- Gen.sequence[List[List[Long]], List[Long]](chans.map(ch => cuts(len(ch.to) - 1)))
  } yield {
    val sentOf = chans.zip(sent).toMap
    val recvOf = chans.zip(recv).toMap
    ids.map { id =>
      id -> (0 until len(id)).map { x =>
        CkptMeta(id, x, if (x == 0) InitialCkpt else LocalCkpt, x.toLong, x.toLong, 0L, (),
          chans.filter(_.from == id).map(ch => ch -> sentOf(ch)(x)).toMap,
          chans.filter(_.to == id).map(ch => ch -> recvOf(ch)(x)).toMap,
          0L, counted = true, syncMicros = 0L)
      }
    }.toMap
  }

  property("fixpoint line and rolled-past counts equal Algorithm 1's") =
    Prop.forAll(histories) { ckpts =>
      val oracle = RollbackPropagation.recoveryLine(new CheckpointGraph(ckpts))
      val fixpoint = Recovery.recoveryLine(ckpts)
      (fixpoint == oracle) :| s"fixpoint $fixpoint vs Algorithm 1 $oracle"
    }

  property("the line is the same over any durable suffix that contains it") =
    Prop.forAll(histories, Gen.choose(0, 5)) { (ckpts, drop) =>
      // Collection keeps the line and everything newer, so a plan over the
      // collected lists must find the same line.
      val (line, _) = Recovery.recoveryLine(ckpts)
      val collected = ckpts.map { case (id, ms) =>
        id -> ms.drop(math.min(drop, ms.indexOf(line(id))))
      }
      Recovery.recoveryLine(collected)._1 == line
    }
}
