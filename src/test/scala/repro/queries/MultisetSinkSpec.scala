package repro.queries

import scala.collection.mutable
import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite

/** The multiset sink's record buffer: snapshots are views of a prefix that
  * later appends, buffer growth and restores must never change.
  */
class MultisetSinkSpec extends AnyFunSuite {

  private def record(sink: MultisetSink, values: Any*): Unit =
    values.foreach(sink.onRecord(_, "up", _ => ()))

  private def countsOf(values: Any*): Map[Any, Long] =
    values.groupBy(identity).map { case (k, vs) => k -> vs.size.toLong }

  private def viewCounts(view: Any): Map[Any, Long] =
    view.asInstanceOf[MultisetSink.Records].counts

  test("a view is unchanged by later appends and by growth") {
    val sink = new MultisetSink
    record(sink, "a", "b", "a")
    val view = sink.snapshot()
    // First into the array the view shares, then past its capacity.
    record(sink, (1 to 100).map(i => s"k${i % 7}"): _*)
    assert(viewCounts(view) == countsOf("a", "b", "a"))
    val full = sink.snapshot()
    record(sink, (1 to 200).map(i => s"k${i % 3}"): _*)
    assert(viewCounts(full) == countsOf(Seq("a", "b", "a") ++ (1 to 100).map(i => s"k${i % 7}"): _*))
  }

  test("restoring an earlier view and appending leaves a later view intact") {
    val sink = new MultisetSink
    record(sink, "a", "b")
    val early = sink.snapshot()
    record(sink, "c", "d")
    val late = sink.snapshot()
    sink.restore(early)
    record(sink, "x", "y", "z")
    assert(viewCounts(late) == countsOf("a", "b", "c", "d"))
    assert(sink.counts == countsOf("a", "b", "x", "y", "z"))
  }

  test("restoring one view twice gives equal counts") {
    val source = new MultisetSink
    record(source, "a", "b", "a")
    val view = source.snapshot()
    val first = new MultisetSink
    first.restore(view)
    record(first, "p")
    val second = new MultisetSink
    second.restore(view)
    record(second, "q")
    assert(first.counts == countsOf("a", "b", "a", "p"))
    assert(second.counts == countsOf("a", "b", "a", "q"))
    first.restore(view)
    second.restore(view)
    assert(first.counts == second.counts)
    assert(first.counts == viewCounts(view))
  }

  test("counts equal a mutable-map reference over random streams with restores") {
    for (seed <- 1 to 200) {
      val rnd = new Random(seed)
      val sink = new MultisetSink
      val reference = mutable.HashMap.empty[Any, Long]
      val views = mutable.ArrayBuffer.empty[(Any, Map[Any, Long])]
      for (_ <- 0 until rnd.nextInt(300)) rnd.nextInt(20) match {
        case 0 =>
          views += sink.snapshot() -> reference.toMap
        case 1 if views.nonEmpty =>
          val (view, counts) = views(rnd.nextInt(views.size))
          sink.restore(view)
          reference.clear()
          reference ++= counts
          assert(sink.counts == counts, s"seed $seed: restored counts")
        case _ =>
          val v = rnd.nextInt(12).toLong
          sink.onRecord(v, "up", _ => ())
          reference(v) = reference.getOrElse(v, 0L) + 1L
      }
      assert(sink.counts == reference.toMap, s"seed $seed: live counts")
      assert(sink.stateBytes == reference.size * 48L, s"seed $seed: state size")
      views.foreach { case (view, counts) =>
        assert(viewCounts(view) == counts, s"seed $seed: a view changed")
      }
    }
  }
}
