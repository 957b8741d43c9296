package repro.checkpoint

import org.scalatest.funsuite.AnyFunSuite
import repro.{Recorder, SimTestKit}
import repro.dataflow.{InstanceId, Runtime}
import repro.queries._

/** Garbage collection of the checkpoint store and the message log: every
  * recovery plan made on the collected state equals the plan over the full
  * recorded history, and what the log holds stays bounded over long runs.
  */
class GarbageCollectionSpec extends AnyFunSuite {

  /** The plan the runtime would make at the failure if nothing had been
    * collected: Algorithm 1 (UNC/CIC) or the last complete round (COOR)
    * over every checkpoint the recorder saw.
    */
  private def checkAgainstHistory(rt: Runtime, history: Recorder): Unit = {
    val f = rt.metrics.failureAt.get
    val plan = history.lastPlan.get
    val ckpts = rt.graph.instances.map(id => id -> history.store.durable(id, f)).toMap
    history.inner match {
      case coor: Coordinated =>
        val round = coor.completedRounds.collect { case (r, (_, end)) if end <= f => r }.maxOption
        val line = ckpts.map { case (id, ms) =>
          id -> round.fold(ms.head)(r => ms.find(_.kind == CoordinatedCkpt(r)).get)
        }
        assert(plan.line == line)
        assert(plan.replay.isEmpty)
      case _ =>
        val (line, rolled) = RollbackPropagation.recoveryLine(new CheckpointGraph(ckpts))
        assert(plan.line == line)
        val invalid = rolled.iterator.map { case (id, n) =>
          ckpts(id).takeRight(n).count(_.counted)
        }.sum
        assert(plan.invalidCounted == invalid)
        val nodes = ckpts.valuesIterator.map(_.size.toLong).sum
        assert(plan.lineAlgoMicros == Recovery.LineAlgoPerNodeMicros * nodes)
        val ranges = for {
          meta <- line.values
          (ch, sent) <- meta.lastSent
          lo = line(ch.to).lastReceived.getOrElse(ch, 0L)
          if lo < sent
        } yield ch -> ((lo + 1) to sent)
        assert(plan.replay.view.mapValues(_.map(_.seq)).toMap ==
          ranges.toMap.view.mapValues(_.toSeq).toMap)
        assert(plan.replay.forall { case (ch, ms) => ms.forall(_.channel == ch) })
        assert(plan.restartMicros == Recovery.stateLoadMicros(rt, line) + plan.lineAlgoMicros +
          Recovery.replayPrepMicros(rt, plan.replay))
    }
  }

  // The cells and failure times of ExactlyOnceSpec's main grid.
  for (q <- Seq(Q1, Q3, Q8(slackMicros = 3_600_000_000L), Q12(slackMicros = 3_600_000_000L));
       p <- Seq("COOR", "UNC", "CIC"); f <- Seq(4_000_000L, 9_000_000L))
    test(s"${q.name}/$p: the plan at ${f / 1000000}s equals the plan over the full history") {
      val (rt, res, history) = SimTestKit.recordedRun(q, p, 3, rate = 150.0,
        horizonMicros = 15_000_000L, failAt = Some(f))
      checkAgainstHistory(rt, history)
      assert(res.eoViolations == 0 && res.unconsumed == 0)
      // Collection did drop something, or the check above proves nothing.
      val held = rt.graph.instances.map(id => rt.store.all(id).size).sum
      assert(held < history.store.allMetas.size)
    }

  test("the held message log does not grow with run length (Q1/CIC, 3 workers)") {
    def peak(horizonMicros: Long): Long = {
      val (rt, res, history) = SimTestKit.recordedRun(Q1, "CIC", 3, rate = 150.0,
        horizonMicros = horizonMicros)
      assert(res.unconsumed == 0)
      info(s"${horizonMicros / 1000000} s input: peak ${history.peakHeldMessages} held of " +
        s"${rt.log.totalMessages} logged")
      history.peakHeldMessages
    }
    val short = peak(20_000_000L)
    val long = peak(60_000_000L)
    assert(short > 0)
    assert(long <= 1.25 * short, s"peak held messages: $short over 20 s, $long over 60 s")
  }

  test("the store holds a bounded number of checkpoints per instance") {
    for (p <- Seq("COOR", "UNC", "CIC")) {
      val (rt, res) = SimTestKit.run(Q3, p, 3, rate = 150.0, horizonMicros = 15_000_000L,
        failAt = Some(6_000_000L))
      val perInstance = rt.graph.instances.map((id: InstanceId) => rt.store.all(id).size)
      assert(perInstance.max <= 4, s"$p holds $perInstance")
      assert(res.totalCounted > 10L * rt.graph.instances.size, s"$p counted ${res.totalCounted}")
    }
  }
}
