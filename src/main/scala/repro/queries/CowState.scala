package repro.queries

import scala.collection.immutable.TreeMap
import scala.collection.mutable

/** Copy-on-write operator state: mutable tables written in place between
  * snapshots, as in Flink's `CopyOnWriteStateMap` (DESIGN §6).
  *
  * Each table is stamped with the epoch it was copied in. A snapshot ends
  * the epoch, so every table a snapshot holds carries an ended epoch: the
  * first write to such a table copies it, and later writes in the same
  * epoch go to the copy in place. No table a snapshot holds is written
  * again. A restore adopts a snapshot's tables as they are and starts a
  * new epoch as well, so they too are copied before their first write. An
  * epoch is a fresh object, not a number, so the tables of a snapshot
  * another instance took never look current either.
  *
  * This pays when a logic writes its state many times over between
  * snapshots, as windowed state is written (DESIGN §6).
  */
private[queries] final class Epochs {
  private var current = new AnyRef

  /** End the current epoch. */
  def next(): Unit = current = new AnyRef

  /** `table`, stamped with the current epoch. */
  def stamp[M <: mutable.Cloneable[M]](table: M): Stamped[M] = new Stamped(table, current)

  /** `s` if it was copied in the current epoch, else a copy stamped with it. */
  def writable[M <: mutable.Cloneable[M]](s: Stamped[M]): Stamped[M] =
    if (s.epoch eq current) s else new Stamped(s.table.clone(), current)
}

/** A table and the epoch it was copied in. Two are equal when their
  * tables are, whatever their epochs.
  */
private[queries] final class Stamped[M <: mutable.Cloneable[M]](
    val table: M, val epoch: AnyRef) {
  override def equals(o: Any): Boolean = o match {
    case s: Stamped[_] => table == s.table
    case _             => false
  }
  override def hashCode: Int = table.hashCode
}

/** An ordered map of windows, each a copy-on-write table `key -> V`.
  * Ordering by window lets expiry test the oldest window instead of
  * scanning every key. A snapshot is the map itself, in O(1).
  */
private[queries] final class CowWindows[V] {
  import CowWindows.Snapshot
  private val epochs = new Epochs
  private var windows: Snapshot[V] = TreeMap.empty

  /** The table of window `w` for reading, or null if `w` has none. */
  def read(w: Long): mutable.LongMap[V] = {
    val s = windows.getOrElse(w, null)
    if (s == null) null else s.table
  }

  /** The table of window `w`, writable in place for the rest of the epoch. */
  def write(w: Long): mutable.LongMap[V] = {
    val s = windows.getOrElse(w, null)
    val t = if (s == null) epochs.stamp(mutable.LongMap.empty[V]) else epochs.writable(s)
    if (t ne s) windows = windows.updated(w, t)
    t.table
  }

  /** Drop every window below `live`. */
  def expireBelow(live: Long): Unit =
    if (windows.nonEmpty && windows.firstKey < live) windows = windows.rangeFrom(live)

  /** Entries over all windows. */
  def size: Long = windows.valuesIterator.map(_.table.size.toLong).sum

  def snapshot(): Snapshot[V] = { epochs.next(); windows }

  /** Adopt `s` and start a new epoch, so no write reaches `s` and it can
    * be restored again.
    */
  def restore(s: Snapshot[V]): Unit = { windows = s; epochs.next() }
}

private[queries] object CowWindows {
  type Snapshot[V] = TreeMap[Long, Stamped[mutable.LongMap[V]]]
}
