package repro.dataflow

import org.scalatest.funsuite.AnyFunSuite
import repro.checkpoint._
import repro.nexmark.NxBid

/** Unit tests of the small substrate components: message log, state store,
  * source input, cost model, sizing.
  */
class ComponentsSpec extends AnyFunSuite {
  private val a = InstanceId("a", 0)
  private val b = InstanceId("b", 0)
  private val ab = ChannelId(a, b)

  private def msg(seq: Long, bytes: Int = 10) =
    Msg(ab, seq, Data, seq, bytes, None, 0L)

  test("message log ranges are positional on contiguous seqs") {
    val log = new MessageLog
    (1L to 10L).foreach(s => log.append(msg(s)))
    assert(log.range(ab, 0, 10).map(_.seq) == (1L to 10L))
    assert(log.range(ab, 3, 7).map(_.seq) == (4L to 7L))
    assert(log.range(ab, 7, 3).isEmpty)
    assert(log.range(ab, 10, 20).isEmpty)
    assert(log.range(ChannelId(b, a), 0, 5).isEmpty)
  }

  test("message log byte and message totals") {
    val log = new MessageLog
    (1L to 5L).foreach(s => log.append(msg(s, 100)))
    assert(log.totalMessages == 5)
    assert(log.totalBytes == 5L * (Msg.FrameBytes + 100))
  }

  test("message log: collect, truncate and re-append keep ranges positional") {
    val log = new MessageLog
    (1L to 10L).foreach(s => log.append(msg(s)))
    log.collectThrough(ab, 4)
    assert(log.heldMessages == 6)
    assert(log.range(ab, 0, 10).map(_.seq) == (5L to 10L))
    // A resumed sender restored to seq 7 re-sends 8.. with new payloads.
    log.truncateAfter(ab, 7)
    assert(log.heldMessages == 3)
    (8L to 12L).foreach(s => log.append(msg(s, bytes = 20)))
    val resent = log.range(ab, 7, 12)
    assert(resent.map(_.seq) == (8L to 12L))
    assert(resent.forall(_.payloadBytes == 20))
    assert(log.range(ab, 4, 12).map(_.seq) == (5L to 12L))
    assert(log.heldMessages == 8)
    // Ever-appended counters include the re-sent messages.
    assert(log.totalMessages == 15)
    assert(log.totalBytes == 10L * (Msg.FrameBytes + 10) + 5L * (Msg.FrameBytes + 20))
    // Collecting past the end or below the front is harmless.
    log.collectThrough(ab, 2)
    assert(log.heldMessages == 8)
    log.collectThrough(ab, 99)
    assert(log.heldMessages == 0 && log.range(ab, 0, 99).isEmpty)
    log.append(msg(13))
    assert(log.range(ab, 12, 13).map(_.seq) == Seq(13L))
  }

  test("message log refuses a seq gap") {
    val log = new MessageLog
    log.append(msg(1))
    intercept[IllegalArgumentException](log.append(msg(3)))
  }

  test("state store: collection and recovery drop checkpoints, tallies stay") {
    val store = new StateStore(countFrom = 100, countUntil = 1000)
    def meta(idx: Int, takenAt: Long, durableAt: Long, kind: CkptKind = LocalCkpt) =
      CkptMeta(a, idx, kind, takenAt, durableAt, 0, (), Map.empty, Map.empty, 0,
        counted = true, syncMicros = 1)
    store.put(meta(0, 0, 0, InitialCkpt))
    store.put(meta(1, 50, 60))
    store.put(meta(2, 150, 900)) // a slow upload, still pending at 500
    store.put(meta(3, 200, 210, ForcedCkpt))
    store.put(meta(4, 300, 310))
    store.put(meta(5, 400, 410))
    assert(store.counted == 4 && store.forcedCounted == 1)
    store.collectBelow(a, 4, now = 500)
    assert(store.all(a).map(_.idx) == Seq(2, 4, 5))
    assert(store.collectedDurable == 3)
    assert(store.byIdx(a, 2).nonEmpty && store.byIdx(a, 3).isEmpty)
    store.dropAfter(a, 4)
    assert(store.all(a).map(_.idx) == Seq(2, 4))
    assert(store.collectedDurable == 3)
    store.put(meta(7, 600, 610))
    assert(store.byIdx(a, 7).map(_.takenAt).contains(600L))
    assert(store.byIdx(a, 5).isEmpty)
    assert(store.durable(a, 700).map(_.idx) == Seq(4, 7))
    assert(store.counted == 5 && store.forcedCounted == 1)
  }

  test("state store filters on durability horizon") {
    val store = new StateStore
    def meta(idx: Int, durableAt: Long) = CkptMeta(a, idx, LocalCkpt, durableAt - 1,
      durableAt, 0, (), Map.empty, Map.empty, 0, counted = true, syncMicros = 1)
    store.put(meta(1, 100)); store.put(meta(2, 200)); store.put(meta(3, 300))
    assert(store.durable(a, 250).map(_.idx) == Seq(1, 2))
    assert(store.durable(a, 99).isEmpty)
    assert(store.all(a).size == 3)
  }

  test("source input partitioning is round-robin and order-preserving") {
    val evs = (0 until 10).map(i => SourceEvent(i * 100L, i, 8))
    val in = SourceInput.partitioned("src", 3, evs)
    assert(in.totalEvents == 10)
    assert(in.events(InstanceId("src", 0)).map(_.value) == Seq(0, 3, 6, 9))
    assert(in.events(InstanceId("src", 1)).map(_.value) == Seq(1, 4, 7))
    assert(in.horizon == 900L)
  }

  test("source input rejects unsorted events") {
    intercept[IllegalArgumentException] {
      new SourceInput(Map(a -> IndexedSeq(SourceEvent(5, 1, 1), SourceEvent(2, 2, 1))))
    }
  }

  test("cost model: serde, upload and snapshot scale with bytes") {
    val c = SimConfig()
    assert(c.serdeMicros(0) == 0)
    assert(c.serdeMicros(2048) == math.round(2 * c.serdeMicrosPerKb))
    assert(c.uploadMicros(0) == c.storePutMicros)
    assert(c.uploadMicros(1024 * 100) > c.uploadMicros(1024))
    assert(c.snapshotMicros(1024) > c.snapshotBaseMicros)
  }

  test("sim config end/fail instants compose warmup and run") {
    val c = SimConfig(warmupMicros = 5, runMicros = 10, failAtMicros = Some(3))
    assert(c.endMicros == 15)
    assert(c.failAbs.contains(8L))
  }

  test("sizer: events carry their declared size; products are estimated") {
    assert(Sizer.bytes(NxBid(1, 2, 3.0, 4)) == 32)
    assert(Sizer.bytes(7L) == 8)
    assert(Sizer.bytes("abcd") == 8)
    assert(Sizer.bytes((1L, 2L)) == 24)
  }

  test("wire bytes = frame + payload + piggyback") {
    val p = Piggyback(1, Array(1), Array(true), Array(false), 20)
    assert(msg(1, 100).wireBytes == Msg.FrameBytes + 100)
    assert(msg(1, 100).copy(piggyback = Some(p)).wireBytes == Msg.FrameBytes + 120)
  }

  test("instance state bytes include channel metadata; uncounted ops stay near zero") {
    val spec = OperatorSpec("x", () => new repro.queries.PassThrough, stateful = false)
    val inst = new Instance(0, InstanceId("x", 0), spec, spec.logic(), IndexedSeq(ab), IndexedSeq())
    assert(inst.stateBytes < 64)
  }

  test("ids cache hash codes equal to the case-class defaults") {
    // Hash-map iteration orders, and through them the event sequence,
    // depend on these exact values (recorded from the synthesized hashCode).
    assert(InstanceId("src", 0).hashCode == 1165894175)
    assert(InstanceId("sink", 7).hashCode == 537497277)
    assert(InstanceId("join", 49).hashCode == -149504327)
    assert(ChannelId(InstanceId("src", 0), InstanceId("sink", 7)).hashCode == 210714958)
  }

  test("inbox is a FIFO across wrap-around and growth") {
    val inbox = new Inbox
    val model = scala.collection.mutable.Queue.empty[(Long, Msg)]
    val rnd = new scala.util.Random(5)
    var seq = 0L
    (0 until 2000).foreach { _ =>
      if (model.isEmpty || rnd.nextInt(5) < 3) {
        seq += 1
        inbox.enqueue(seq * 10, msg(seq))
        model.enqueue((seq * 10, msg(seq)))
      } else {
        assert(inbox.headArrival == model.head._1)
        assert(inbox.dequeue() == model.dequeue()._2)
      }
      assert(inbox.size == model.size)
    }
    inbox.clear()
    assert(inbox.isEmpty)
  }
}
