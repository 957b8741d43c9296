package repro.dataflow

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.core.GoldenSpec
import scala.collection.mutable
import scala.util.Random

class EventQueueSpec extends AnyFunSuite {

  test("events pop in time order") {
    val q = new EventQueue
    q.schedule(30, Wake(0))
    q.schedule(10, Wake(1))
    q.schedule(20, Wake(2))
    assert(q.pop()._1 == 10)
    assert(q.pop()._1 == 20)
    assert(q.pop()._1 == 30)
  }

  test("ties break by insertion order (deterministic)") {
    val q = new EventQueue
    val ids = 0 until 50
    ids.foreach(id => q.schedule(5, Wake(id)))
    val popped = (0 until 50).map(_ => q.pop()._2.asInstanceOf[Wake].index)
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
  private sealed trait HorizonOp
  private final case class Schedule(time: Long) extends Op
  private case object Pop   extends Op with HorizonOp
  private case object Clear extends Op with HorizonOp

  /** Mostly schedules over few distinct times (many ties) and enough pops
    * to interleave. Half the scripts clear now and then; long scripts of
    * the other half outgrow the queue's initial capacity.
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
          q.schedule(t, Wake(inserted))
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
            action == Wake(expected._2) && q.size == model.size
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

  // ------------------------------------ property across the wheel's horizon

  private val W = EventQueue.WheelMicros.toLong

  /** Schedule at `offset` from the latest time popped (the wheel's base). */
  private final case class At(offset: Long) extends HorizonOp
  /** Schedule again at the time of a pending event, preferring one that went
    * to the overflow queue and that the window has reached since.
    */
  private final case class Again(k: Int) extends HorizonOp

  /** Dense times with many ties, times over several windows, the window's
    * edge, times below the latest pop, and repeats of pending times. The
    * pop weight varies per script, so some queues grow (and outgrow the
    * node pool) while others drain and carry the window across the far
    * events.
    */
  private val horizonOps: Gen[List[HorizonOp]] = for {
    n      <- Gen.choose(0, 6 * EventQueue.InitialCapacity)
    pops   <- Gen.choose(15, 70)
    clears <- Gen.oneOf(0, 1)
    ops    <- Gen.listOfN(n, Gen.frequency(
      30     -> Gen.choose(0L, 40L).map(At(_)),
      15     -> Gen.choose(0L, 4 * W).map(At(_)),
      6      -> Gen.oneOf(W - 1, W, W + 1).map(At(_)),
      4      -> Gen.choose(-50L, -1L).map(At(_)),
      8      -> Gen.choose(0, 1000).map(Again(_)),
      pops   -> Gen.const(Pop),
      clears -> Gen.const(Clear)))
  } yield ops

  test("schedules across the wheel's horizon pop in the model's (time, insertion) order") {
    var maxWheel, belowBase, inBoth, scheduledAfterClear = 0
    var maxBase = 0L
    val prop = Prop.forAll(horizonOps) { script =>
      val q = new EventQueue
      // Reference: pending (time, insertion number, went to overflow),
      // popped by a stable sort. `base` is the latest time popped.
      val model = mutable.ArrayBuffer.empty[(Long, Int, Boolean)]
      var base = 0L
      var inserted = 0
      var overflowed = 0L
      var cleared = false
      def schedule(t: Long): Boolean = {
        val toOverflow = t < base || t >= base + W
        if (t < base) belowBase += 1
        if (!toOverflow && model.exists(e => e._1 == t && e._3)) inBoth += 1
        if (toOverflow) overflowed += 1
        q.schedule(t, Wake(inserted))
        model += ((t, inserted, toOverflow))
        inserted += 1
        if (cleared) scheduledAfterClear += 1
        maxWheel = math.max(maxWheel, model.count(!_._3))
        q.size == model.size && q.overflowed == overflowed
      }
      script.forall {
        case At(offset) => schedule(base + offset)
        case Again(k) =>
          val reached = model.filter(e => e._3 && e._1 >= base && e._1 < base + W)
          val from = if (reached.nonEmpty) reached else model
          schedule(if (from.isEmpty) base else from(k % from.size)._1)
        case Pop if model.isEmpty => q.isEmpty
        case Pop =>
          val expected = model(model.indices.minBy(i => model(i)._1))
          model -= expected
          base = math.max(base, expected._1)
          maxBase = math.max(maxBase, base)
          val peeked = q.peekTime
          val (t, action) = q.pop()
          peeked == expected._1 && t == expected._1 &&
            action == Wake(expected._2) && q.size == model.size
        case Clear =>
          q.clear()
          model.clear()
          cleared = true
          q.isEmpty && !q.nonEmpty
      }
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(result.passed, Pretty.pretty(result))
    assert(maxWheel > EventQueue.InitialCapacity, "no script outgrew the wheel's node pool")
    assert(maxBase > 3 * W, s"the window never moved past 3 turns (latest pop $maxBase)")
    assert(belowBase > 0, "no script scheduled below the latest pop")
    assert(inBoth > 0, "no time was pending in the wheel and the overflow queue at once")
    assert(scheduledAfterClear > 0, "no script scheduled after a clear")
  }

  /** At this grid's 150 ev/s a source's next event lies ~20 ms ahead, past
    * the window, and UNC/CIC timers fire 1.5 s apart through a 120 s run:
    * those overflow, 10.6-23.1 % of all schedules per cell. Messages and
    * busy-until wakes, the bulk, land within the window. If a cost-model
    * change pushed them out, the share would pass one third.
    */
  test("the wheel holds the simulator's events (GoldenSpec's 3-worker cells)") {
    for ((query, protocol) <- GoldenSpec.cells) {
      val q = GoldenSpec.runCell(query, protocol)._1.queue
      val share = q.overflowed.toDouble / q.scheduled
      info(f"${query.name}/$protocol: ${q.overflowed} of ${q.scheduled} schedules overflowed " +
        f"(${100 * share}%.2f %%)")
      assert(share < 1.0 / 3, s"${query.name}/$protocol sends ${q.overflowed} of ${q.scheduled} " +
        "schedules through the overflow queue")
    }
  }

  test("popping an empty queue fails loudly") {
    val q = new EventQueue
    q.schedule(1, InjectFailure)
    q.pop()
    intercept[NoSuchElementException](q.pop())
    intercept[NoSuchElementException](q.peekTime)
  }
}
