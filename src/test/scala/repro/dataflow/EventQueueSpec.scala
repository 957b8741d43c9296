package repro.dataflow

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import scala.util.Random

class EventQueueSpec extends AnyFunSuite {

  test("events pop in time order") {
    val q = new EventQueue
    q.schedule(30, Wake(InstanceId("a", 0)))
    q.schedule(10, Wake(InstanceId("b", 0)))
    q.schedule(20, Wake(InstanceId("c", 0)))
    assert(q.pop()._1 == 10)
    assert(q.pop()._1 == 20)
    assert(q.pop()._1 == 30)
  }

  test("ties break by insertion order (deterministic)") {
    val q = new EventQueue
    val ids = (0 until 50).map(i => InstanceId(s"op$i", 0))
    ids.foreach(id => q.schedule(5, Wake(id)))
    val popped = (0 until 50).map(_ => q.pop()._2.asInstanceOf[Wake].id)
    assert(popped == ids)
  }

  test("clear drops everything") {
    val q = new EventQueue
    (1 to 10).foreach(i => q.schedule(i.toLong, InjectFailure))
    q.clear()
    assert(q.isEmpty)
  }

  test("pop sequence is sorted by time for random schedules (100 seeds)") {
    (1 to 100).foreach { seed =>
      val rnd = new Random(seed)
      val q = new EventQueue
      (0 until 200).foreach(_ => q.schedule(rnd.nextInt(1000).toLong, InjectFailure))
      val out = Iterator.continually(if (q.nonEmpty) Some(q.pop()._1) else None)
        .takeWhile(_.isDefined).flatten.toList
      assert(out == out.sorted)
    }
  }

  test("interleaved schedule/pop never goes back in time") {
    val rnd = new Random(1234)
    val q = new EventQueue
    var last = 0L
    (0 until 500).foreach { _ =>
      q.schedule(last + rnd.nextInt(100), InjectFailure)
      if (rnd.nextBoolean() && q.nonEmpty) {
        val (t, _) = q.pop()
        assert(t >= last)
        last = t
      }
    }
  }

  // ------------------------------------------------- property vs a model

  private sealed trait Op
  private final case class Schedule(time: Long) extends Op
  private case object Pop   extends Op
  private case object Clear extends Op

  /** Mostly schedules over few distinct times (many ties) and enough pops
    * to interleave. Half the scripts clear now and then; long scripts of
    * the other half outgrow the heap's initial capacity.
    */
  private val ops: Gen[List[Op]] = for {
    n      <- Gen.choose(0, 6 * EventQueue.InitialCapacity)
    clears <- Gen.oneOf(0, 1)
    ops    <- Gen.listOfN(n, Gen.frequency(
      60     -> Gen.choose(0L, 20L).map(Schedule(_)),
      30     -> Gen.const(Pop),
      clears -> Gen.const(Clear)))
  } yield ops

  test("random schedule/pop/clear interleavings pop in the model's (time, insertion) order") {
    var maxSize = 0
    var scheduledAfterClear = false
    val prop = Prop.forAll(ops) { script =>
      val q = new EventQueue
      // Reference: pending (time, insertion number), popped by a stable sort.
      val model = mutable.ArrayBuffer.empty[(Long, Int)]
      var inserted = 0
      var cleared = false
      script.forall {
        case Schedule(t) =>
          q.schedule(t, Wake(InstanceId("e", inserted)))
          model += ((t, inserted))
          inserted += 1
          scheduledAfterClear ||= cleared
          maxSize = math.max(maxSize, q.size)
          q.size == model.size
        case Pop if model.isEmpty => q.isEmpty
        case Pop =>
          // The buffer is in insertion order, so the first minimum is stable.
          val expected = model(model.indices.minBy(i => model(i)._1))
          model -= expected
          val peeked = q.peekTime
          val (t, action) = q.pop()
          peeked == expected._1 && t == expected._1 &&
            action == Wake(InstanceId("e", expected._2)) && q.size == model.size
        case Clear =>
          q.clear()
          model.clear()
          cleared = true
          q.isEmpty && !q.nonEmpty
      }
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(result.passed, Pretty.pretty(result))
    assert(maxSize > EventQueue.InitialCapacity, "no script outgrew the initial capacity")
    assert(scheduledAfterClear, "no script scheduled after a clear")
  }

  test("popping an empty queue fails loudly") {
    val q = new EventQueue
    q.schedule(1, InjectFailure)
    q.pop()
    intercept[NoSuchElementException](q.pop())
    intercept[NoSuchElementException](q.peekTime)
  }
}
