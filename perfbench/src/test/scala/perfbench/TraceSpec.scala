package perfbench

import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite {
  private def span(id: Int, parent: Option[Int], start: Double, end: Double) =
    Span(id, s"s$id", explainId = 1, parent, start, end)

  test("covered merges overlapping intervals and clips them to the window") {
    assert(Trace.covered(Seq((0.0, 4.0), (2.0, 6.0), (8.0, 9.0)), 0, 100) == 7.0)
    assert(Trace.covered(Seq((0.0, 4.0), (2.0, 6.0), (8.0, 12.0)), 1, 10) == 7.0)
    assert(Trace.covered(Seq((5.0, 6.0), (0.0, 10.0)), 0, 100) == 10.0)
    assert(Trace.covered(Seq.empty, 0, 10) == 0.0)
    assert(Trace.covered(Seq((20.0, 30.0)), 0, 10) == 0.0)
  }

  test("self time subtracts the union of the children, not their sum") {
    val root = span(1, None, 0, 100)
    // two concurrent children overlap on [20, 30]; one child overruns the parent
    val spans = Seq(root, span(2, Some(1), 10, 30), span(3, Some(1), 20, 50),
      span(4, Some(1), 90, 120), span(5, Some(2), 10, 30))
    assert(Trace.selfMs(root, spans) == 100 - 40 - 10)
    // a grandchild covers its parent completely
    assert(Trace.selfMs(spans(1), spans) == 0.0)
    assert(Trace.selfMs(spans(2), spans) == 30.0)
  }

  test("the tracer nests spans through explicit parents and keeps them all") {
    val t = new Tracer
    val (v, outer) = t.span("outer", 7, None) { id =>
      t.span("inner", 7, Some(id))(_ => 42)._1
    }
    assert(v == 42)
    val all = t.all
    assert(all.map(_.name) == Seq("outer", "inner"))
    assert(all(1).parent.contains(outer.id))
    assert(all(1).startMs >= outer.startMs && all(1).endMs <= outer.endMs)
    assert(all.forall(_.explainId == 7))
  }
}
