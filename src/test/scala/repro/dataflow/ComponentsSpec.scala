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

  /** a[0] and b[0] with a channel each way: a's out-channel 0 is `ab`. */
  private val twoWay = Graph(
    Seq(OperatorSpec("a", () => new repro.queries.PassThrough, stateful = false),
      OperatorSpec("b", () => new repro.queries.PassThrough, stateful = false)),
    Seq(Edge("a", "b", ForwardPart), Edge("b", "a", ForwardPart)), parallelism = 1)
  private val (aIdx, bIdx) = (twoWay.wiring.index(a), twoWay.wiring.index(b))
  assert(twoWay.wiring.outCh(aIdx) == Seq(ab))

  test("message log ranges are positional on contiguous seqs") {
    val log = new MessageLog(twoWay.wiring)
    val out = log(aIdx, 0)
    (1L to 10L).foreach(s => out.append(msg(s)))
    assert(out.range(0, 10).map(_.seq) == (1L to 10L))
    assert(out.range(3, 7).map(_.seq) == (4L to 7L))
    assert(out.range(7, 3).isEmpty)
    assert(out.range(10, 20).isEmpty)
    assert(log(bIdx, 0).range(0, 5).isEmpty)
  }

  test("message log byte and message totals") {
    val log = new MessageLog(twoWay.wiring)
    val out = log(aIdx, 0)
    (1L to 5L).foreach(s => out.append(msg(s, 100)))
    assert(log.totalMessages == 5)
    assert(log.totalBytes == 5L * (Msg.FrameBytes + 100))
  }

  test("message log: collect, truncate and re-append keep ranges positional") {
    val log = new MessageLog(twoWay.wiring)
    val out = log(aIdx, 0)
    (1L to 10L).foreach(s => out.append(msg(s)))
    out.collectThrough(4)
    assert(log.heldMessages == 6)
    assert(out.range(0, 10).map(_.seq) == (5L to 10L))
    // A resumed sender restored to seq 7 re-sends 8.. with new payloads.
    out.truncateAfter(7)
    assert(log.heldMessages == 3)
    (8L to 12L).foreach(s => out.append(msg(s, bytes = 20)))
    val resent = out.range(7, 12)
    assert(resent.map(_.seq) == (8L to 12L))
    assert(resent.forall(_.payloadBytes == 20))
    assert(out.range(4, 12).map(_.seq) == (5L to 12L))
    assert(log.heldMessages == 8)
    // Ever-appended counters include the re-sent messages.
    assert(log.totalMessages == 15)
    assert(log.totalBytes == 10L * (Msg.FrameBytes + 10) + 5L * (Msg.FrameBytes + 20))
    // Collecting past the end or below the front is harmless.
    out.collectThrough(2)
    assert(log.heldMessages == 8)
    out.collectThrough(99)
    assert(log.heldMessages == 0 && out.range(0, 99).isEmpty)
    out.append(msg(13))
    assert(out.range(12, 13).map(_.seq) == Seq(13L))
  }

  test("message log refuses a seq gap") {
    val out = new MessageLog(twoWay.wiring)(aIdx, 0)
    out.append(msg(1))
    intercept[IllegalArgumentException](out.append(msg(3)))
  }

  /** Instance `a` alone, with no channels. */
  private val alone = ChannelTables(IndexedSeq(a), Nil)

  test("state store: collection and recovery drop checkpoints, tallies stay") {
    val store = new StateStore
    def meta(idx: Int, takenAt: Long, durableAt: Long, kind: CkptKind = LocalCkpt) =
      CkptMeta(a, idx, kind, takenAt, durableAt, 0, (), alone.sent(a, Map.empty),
        alone.received(a, Map.empty), 0, counted = true, syncMicros = 1)
    def held = store.durable(a, Long.MaxValue)
    store.put(meta(0, 0, 0, InitialCkpt))
    store.put(meta(1, 50, 60))
    store.put(meta(2, 150, 900)) // a slow upload, still pending at 500
    store.put(meta(3, 200, 210, ForcedCkpt))
    store.put(meta(4, 300, 310))
    store.put(meta(5, 400, 410))
    store.collectBelow(a, 4, now = 500)
    assert(held.map(_.idx) == Seq(2, 4, 5))
    assert(store.collectedDurable == 3)
    store.dropAfter(a, 4)
    assert(held.map(_.idx) == Seq(2, 4))
    assert(store.collectedDurable == 3)
    store.put(meta(7, 600, 610))
    assert(held.map(m => m.idx -> m.takenAt) == Seq(2 -> 150L, 4 -> 300L, 7 -> 600L))
    assert(store.durable(a, 700).map(_.idx) == Seq(4, 7))
  }

  test("state store filters on durability horizon") {
    val store = new StateStore
    def meta(idx: Int, durableAt: Long) = CkptMeta(a, idx, LocalCkpt, durableAt - 1,
      durableAt, 0, (), alone.sent(a, Map.empty), alone.received(a, Map.empty), 0,
      counted = true, syncMicros = 1)
    store.put(meta(1, 100)); store.put(meta(2, 200)); store.put(meta(3, 300))
    assert(store.durable(a, 250).map(_.idx) == Seq(1, 2))
    assert(store.durable(a, 99).isEmpty)
    assert(store.durable(a, Long.MaxValue).size == 3)
  }

  private def roundRobin(p: Int, expected: Long, n: Int): SourceInput = {
    val rr = new SourceInput.RoundRobin("src", p, expected)
    (0 until n).foreach(i => rr.add(i * 100L, i))
    rr.result()
  }

  test("source input partitioning is round-robin and order-preserving") {
    val in = roundRobin(3, expected = 10, n = 10)
    assert(in.totalEvents == 10)
    assert(in.values(InstanceId("src", 0)).toSeq == Seq(0, 3, 6, 9))
    assert(in.times(InstanceId("src", 0)).toSeq == Seq(0L, 300L, 600L, 900L))
    assert(in.values(InstanceId("src", 1)).toSeq == Seq(1, 4, 7))
    assert(in.size(InstanceId("src", 2)) == 3)
    assert(in.size(InstanceId("map", 0)) == 0 && in.size(InstanceId("src", 3)) == 0)
    assert(in.horizon == 900L)
  }

  test("source input rejects unsorted events") {
    val rr = new SourceInput.RoundRobin("src", 1, 2)
    rr.add(5, 1); rr.add(2, 2)
    intercept[IllegalArgumentException](rr.result())
    // Order is per instance: instance 0 gets 5 and 6, instance 1 gets 2.
    val ok = new SourceInput.RoundRobin("src", 2, 3)
    ok.add(5, 1); ok.add(2, 2); ok.add(6, 3)
    assert(ok.result().times(InstanceId("src", 0)).toSeq == Seq(5L, 6L))
  }

  test("source input refuses more or fewer events than expected") {
    intercept[IllegalArgumentException](roundRobin(3, expected = 4, n = 5))
    intercept[IllegalArgumentException](roundRobin(3, expected = 10, n = 7))
    // Three events over four instances leave instance 3 with none.
    val in = roundRobin(4, expected = 3, n = 3)
    assert((0 until 4).map(i => in.times(InstanceId("src", i)).length) == Seq(1, 1, 1, 0))
    assert(in.values(InstanceId("src", 3)).isEmpty && in.horizon == 200L)
    val none = roundRobin(2, expected = 0, n = 0)
    assert(none.totalEvents == 0 && none.horizon == 0L)
  }

  test("cost model: serde, upload and snapshot scale with bytes") {
    import SimConfig._
    assert(serdeMicros(0) == 0 && serdeMicros(2048) == 40)
    assert(uploadMicros(0) == 4000 && uploadMicros(1024 * 100) == 4500)
    assert(snapshotMicros(0) == 10 && snapshotMicros(1024) == 12)
    assert(NetLatencyMicros == 500 && RpcLatencyMicros == 1000 && DetectMicros == 1_000_000)
    assert(Seed == 42)
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
