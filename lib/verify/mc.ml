type step = { action : string; events : Event.t list }

type counterexample = {
  steps : step list;
  automaton : string;
  property : string;
  paper : string;
  event : Event.t;
  message : string;
}

type stats = {
  states : int;
  transitions : int;
  depth : int;
  truncated : bool;
  peak_queue : int;
  ample : int;
  por : bool;
}

type outcome = Verified | Violation of counterexample
type result = { outcome : outcome; stats : stats }

(* One frontier node: model state, monitor instances, and the reversed
   path that reached it (paths are bounded by max_depth, so storing them
   per node is cheap and spares parent-pointer reconstruction). *)
type node = {
  mstate : Model.state;
  monitors : (Automata.t * Automata.instance) list;
  rev_path : step list;
  node_depth : int;
}

let key node =
  String.concat ";"
    (Model.encode node.mstate
    :: List.map (fun (_, i) -> Automata.encode_state i) node.monitors)

(* Feed a transition's events through every monitor. First rejection
   wins; the remaining monitors are not consulted for later events. *)
let feed_monitors monitors events =
  let rec go monitors = function
    | [] -> Ok monitors
    | ev :: rest -> (
        let violation = ref None in
        let monitors' =
          List.map
            (fun (a, inst) ->
              match !violation with
              | Some _ -> (a, inst)
              | None -> (
                  match Automata.feed inst ev with
                  | Ok inst' -> (a, inst')
                  | Error message ->
                      violation := Some (a, ev, message);
                      (a, inst)))
            monitors
        in
        match !violation with
        | Some (a, ev, message) -> Error (a, ev, message)
        | None -> go monitors' rest)
  in
  go monitors events

(* Ample-set selection (persistent sets over the session/adversary
   product). The session program is deterministic, so a state has at
   most one session transition [t]. Exploring only [t] is sound when
   every enabled adversary action is (a) invisible to every automaton
   in every state and (b) footprint-independent of [t]: each postponed
   action stays enabled across [t] (independence covers its enabling
   condition), fires in a successor with identical events (independence
   covers its payload reads), and the monitor product agrees in both
   orders, so the reduced graph reaches the same verdicts with the same
   minimal counterexample lengths. Postponing is re-decided at every
   state, so an action is explored no later than the first block whose
   footprint it touches; actions postponed all the way past the final
   block are no-ops for safety (invisible, and nothing remains to
   observe their machine effect). Actions that only become enabled
   later — an inject after a pending record — are handled inductively
   where they first appear. The state graph is a DAG (pc strictly
   advances, budgets strictly decrease), so the classic action-ignoring
   cycle problem cannot arise.

   Visibility is judged two ways. [Model.fp_visible] is universal: the
   event is ignored by every automaton in every monitor state, so it
   may be postponed anywhere. On top of that, an action that is silent
   in the state's *current* monitor product (every instance accepts
   unchanged) may also be postponed, because for every adversary event
   this applies to — an un-denied DMA probe outside a live launch —
   the only way a monitor becomes reactive to it again is a transition
   (SKINIT arming the DEV window) that already conflicts with the
   action's footprint, so the silence is stable across everything the
   action can be postponed over. The POR-vs-full QCheck property is
   the regression net for this argument. *)
let monitor_silent monitors events =
  match feed_monitors monitors events with
  | Error _ -> false
  | Ok monitors' ->
      List.for_all2
        (fun (_, a) (_, b) ->
          Automata.encode_state a = Automata.encode_state b)
        monitors monitors'

let ample ~por trans monitors =
  if not por then trans
  else
    match List.partition (fun t -> t.Model.source = Model.Session) trans with
    | ([ session ] as only), (_ :: _ as adversary)
      when List.for_all
             (fun (a : Model.trans) ->
               ((not (Model.fp_visible a.Model.fp))
               || monitor_silent monitors a.Model.events)
               && Model.independent session.Model.fp a.Model.fp)
             adversary ->
        only
    | _ -> trans

let run ?(automata = Automata.all) ?(max_states = 50_000) ?(max_depth = 96)
    ?adversary ?sessions ?(por = true) variant =
  let visited = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let enqueue node =
    (* dedup at enqueue time: the visited set doubles as a membership
       check for the queue, so a state reachable along many commuting
       interleavings is queued (and counted) exactly once *)
    let k = key node in
    if not (Hashtbl.mem visited k) then begin
      Hashtbl.replace visited k ();
      Queue.add node queue
    end
  in
  enqueue
    {
      mstate = Model.initial ?adversary ?sessions variant;
      monitors = List.map (fun a -> (a, Automata.start a)) automata;
      rev_path = [];
      node_depth = 0;
    };
  let states = ref 0 in
  let transitions = ref 0 in
  let depth = ref 0 in
  let truncated = ref false in
  let peak_queue = ref 1 in
  let ample_states = ref 0 in
  let found = ref None in
  (try
     while not (Queue.is_empty queue) do
       let node = Queue.pop queue in
       if !states >= max_states then begin
         truncated := true;
         raise Exit
       end;
       incr states;
       if node.node_depth > !depth then depth := node.node_depth;
       let succs = Model.transitions node.mstate in
       if node.node_depth >= max_depth then begin
         (* only report truncation when the depth cap actually cut
            something off: a leaf at exactly max_depth is fully explored *)
         if succs <> [] then truncated := true
       end
       else begin
         let chosen = ample ~por succs node.monitors in
         if chosen != succs && List.compare_lengths chosen succs < 0 then
           incr ample_states;
         List.iter
           (fun (t : Model.trans) ->
             incr transitions;
             let step = { action = t.Model.label; events = t.Model.events } in
             match feed_monitors node.monitors t.Model.events with
             | Error (a, ev, message) ->
                 found :=
                   Some
                     {
                       steps = List.rev (step :: node.rev_path);
                       automaton = Automata.name a;
                       property = Automata.property a;
                       paper = Automata.paper a;
                       event = ev;
                       message;
                     };
                 raise Exit
             | Ok monitors' ->
                 enqueue
                   {
                     mstate = t.Model.succ;
                     monitors = monitors';
                     rev_path = step :: node.rev_path;
                     node_depth = node.node_depth + 1;
                   })
           chosen;
         let qlen = Queue.length queue in
         if qlen > !peak_queue then peak_queue := qlen
       end
     done
   with Exit -> ());
  let stats =
    {
      states = !states;
      transitions = !transitions;
      depth = !depth;
      truncated = !truncated;
      peak_queue = !peak_queue;
      ample = !ample_states;
      por;
    }
  in
  match !found with
  | Some cex -> { outcome = Violation cex; stats }
  | None -> { outcome = Verified; stats }

let pp_counterexample fmt cex =
  Format.fprintf fmt "@[<v>violates %s (paper %s): %s@,property: %s@,trace:@,"
    cex.automaton cex.paper cex.message cex.property;
  List.iteri
    (fun i step ->
      Format.fprintf fmt "  %2d. %-18s %s@," (i + 1) step.action
        (String.concat ", " (List.map Event.to_string step.events)))
    cex.steps;
  Format.fprintf fmt "  !!  %s@]" (Event.to_string cex.event)
