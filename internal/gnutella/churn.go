package gnutella

import "piersearch/internal/simnet"

// This file holds the overlay's BrowseHost and Ping/Pong message
// handling. Only tests start a browse or a ping, and only tests detach an
// ultrapeer.

// browseMsg asks an ultrapeer for the file list of one of its hosts; the
// reply carries the list back (the BrowseHost API of §7).
type browseMsg struct {
	Target  HostID
	ReplyTo HostID
	Seq     uint64
}

type browseReply struct {
	Seq   uint64
	Files []SharedFile
}

func (n *Network) handleBrowse(st *upState, msg browseMsg) {
	files := n.lib.Files(msg.Target)
	reply := browseReply{Seq: msg.Seq, Files: files}
	if msg.ReplyTo == st.id {
		n.deliverBrowseReply(reply)
		return
	}
	n.net.Send(simnet.Message{
		From: simnet.NodeID(st.id), To: simnet.NodeID(msg.ReplyTo),
		Kind: "browse-reply", Payload: reply, Size: 40 + len(files)*60,
	})
}

func (n *Network) deliverBrowseReply(reply browseReply) {
	cb := n.browseWaiters[reply.Seq]
	if cb == nil {
		return
	}
	delete(n.browseWaiters, reply.Seq)
	cb(reply.Files)
}

type pingMsg struct {
	Seq     uint64
	ReplyTo HostID
}

type pongMsg struct{ Seq uint64 }
