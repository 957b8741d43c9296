package repro.dataflow

/** Replayable, offset-addressable input for every source instance.
  *
  * Events are pre-generated and sorted by time per instance; a source
  * instance's durable state is just its offset, and recovery rewinds to the
  * checkpointed offset — exactly the Kafka contract the paper relies on.
  * Each instance of source operator `op` keeps two columns of equal
  * length: the virtual times at which its events become available in the
  * input queue (end-to-end latency is measured from there) and the record
  * payloads. Build one with [[SourceInput.RoundRobin]].
  */
final class SourceInput private (
    op: String,
    timeCols: Array[Array[Long]],
    valueCols: Array[Array[Any]],
) {
  private def col(id: InstanceId): Int =
    if (id.op == op && id.idx < timeCols.length) id.idx else -1

  /** Event times of instance `id`, nondecreasing (empty if it is no source). */
  def times(id: InstanceId): Array[Long] = {
    val c = col(id)
    if (c < 0) SourceInput.NoTimes else timeCols(c)
  }

  /** Event payloads of instance `id`, aligned with [[times]]. */
  def values(id: InstanceId): Array[Any] = {
    val c = col(id)
    if (c < 0) SourceInput.NoValues else valueCols(c)
  }

  def size(id: InstanceId): Int = times(id).length

  def totalEvents: Long = timeCols.iterator.map(_.length.toLong).sum

  /** Last event availability time across all instances (schedule horizon). */
  def horizon: Long =
    timeCols.iterator.filter(_.nonEmpty).map(_.last).foldLeft(0L)(math.max)
}

object SourceInput {
  private val NoTimes  = Array.emptyLongArray
  private val NoValues = Array.empty[Any]

  /** Round-robin split of one logical stream of exactly `expected` events
    * across `parallelism` instances of source operator `op`: event `n` goes
    * to instance `n % parallelism`. Each instance's columns are allocated
    * once, at its share of the events.
    */
  final class RoundRobin(op: String, parallelism: Int, expected: Long) {
    require(parallelism > 0, "parallelism must be positive")
    private val times: Array[Array[Long]] = Array.tabulate(parallelism) { i =>
      new Array[Long](share(i))
    }
    private val values: Array[Array[Any]] = times.map(t => new Array[Any](t.length))
    private val fill = new Array[Int](parallelism)
    private var next = 0

    /** Events of `expected` that instance `i` receives: ceil((expected - i) / parallelism). */
    private def share(i: Int): Int =
      math.max(0L, (expected - i + parallelism - 1) / parallelism).toInt

    def add(ts: Long, value: Any): Unit = {
      val i = next
      val k = fill(i)
      require(k < times(i).length, s"more than the $expected expected source events")
      times(i)(k) = ts
      values(i)(k) = value
      fill(i) = k + 1
      next = if (i + 1 == parallelism) 0 else i + 1
    }

    /** The input, with every column checked full and sorted. */
    def result(): SourceInput = {
      var i = 0
      while (i < parallelism) {
        val t = times(i)
        require(fill(i) == t.length, s"fewer than the $expected expected source events")
        var k = 1
        while (k < t.length) {
          require(t(k - 1) <= t(k), "source events must be sorted by ts")
          k += 1
        }
        i += 1
      }
      new SourceInput(op, times, values)
    }
  }
}
